// Quickstart: generate a random graph at the paper's density, find a
// Hamiltonian cycle with DHC2, and verify it.
package main

import (
	"fmt"
	"log"

	"dhc"
)

func main() {
	const n = 256
	// p = c·ln(n)/n^δ with δ = 1/2: the DHC1/DHC2 regime. Small n needs a
	// generous density constant (README, "Scaling": density regimes).
	p := dhc.ThresholdP(n, 2, 0.5)
	g := dhc.NewGNP(n, p, 1)
	fmt.Printf("G(n=%d, p=%.3f): %d edges, avg degree %.1f\n", n, p, g.M(), g.AvgDegree())

	res, err := dhc.Solve(g, dhc.AlgorithmDHC2, dhc.Options{Seed: 2, Delta: 0.5})
	if err != nil {
		log.Fatal(err)
	}
	if err := dhc.Verify(g, res.Cycle); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("found a Hamiltonian cycle in %d CONGEST rounds\n", res.Rounds)
	fmt.Printf("  phase 1 (parallel partition subcycles): %d rounds\n", res.Phase1Rounds)
	fmt.Printf("  phase 2 (merging):                      %d rounds\n", res.Phase2Rounds)
	fmt.Printf("  messages: %d, widest message: %d bits (CONGEST allows O(log n))\n",
		res.Counters.Messages, res.Counters.MaxMessageBits)
	fmt.Printf("  cycle: %v\n", res.Cycle)
}

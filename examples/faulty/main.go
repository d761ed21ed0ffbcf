// Faulty: demonstrate that the end-to-end verification catches corrupted
// executions. The CONGEST simulator's fault hook perturbs a fraction of
// rotation broadcasts; the run either fails outright or any cycle it
// produces is rejected by verification — it never silently returns a wrong
// answer. The pinned regression version of this property (more fault
// patterns, both scheduling modes, DHC1/DHC2 too) lives in fault_test.go at
// the repository root.
package main

import (
	"fmt"
	"log"

	"dhc/internal/congest"
	"dhc/internal/dra"
	"dhc/internal/graph"
	"dhc/internal/rng"
	"dhc/internal/wire"
)

func main() {
	n := 120
	p := 0.4
	g := graph.GNP(n, p, rng.New(5))

	// Healthy run first.
	res, err := dra.NewSession(dra.NodeOptions{}).RunLocal(g, 1, congest.Options{})
	if err != nil {
		log.Fatalf("healthy run failed: %v", err)
	}
	fmt.Printf("healthy run: cycle verified, %d rounds\n", res.Counters.Rounds)

	// Corrupt every 50th rotation broadcast's renumbering parameters.
	count := 0
	hook := func(round int64, from, to graph.NodeID, m wire.Message) (wire.Message, bool) {
		if m.Kind == wire.KindRotation {
			count++
			if count%50 == 0 {
				bad := m
				bad.Args[1]++ // shift the rotation point by one
				return bad, true
			}
		}
		return m, true
	}
	_, err = dra.NewSession(dra.NodeOptions{}).RunLocal(g, 1, congest.Options{FaultHook: hook})
	if err == nil {
		log.Fatal("corrupted run produced a 'valid' cycle: verification gap!")
	}
	fmt.Printf("corrupted run rejected as expected: %v\n", err)
	fmt.Println("conclusion: per-node outputs are end-to-end verified; corruption cannot pass silently")
}

package stepsim

import (
	"errors"

	"dhc/internal/cycle"
	"dhc/internal/graph"
	"dhc/internal/rng"
	"dhc/internal/rotation"
)

// hyperRotation runs the orientation-aware hypernode rotation of DHC1
// Phase 2 at step granularity (the sequential twin of
// internal/core/hyper.go): each partition contributes a hypernode with an
// incoming port u_i and outgoing port v_i; the rotation process runs over
// hypernodes, flipping per-hypernode orientation on segment reversals and
// rejecting probes that land on an occupied entry port. It returns the full
// lifted Hamiltonian cycle and the number of steps (probes) consumed.
func hyperRotation(g *graph.Graph, subcycles []*cycle.Cycle, src *rng.Source) (*cycle.Cycle, int64, error) {
	k := len(subcycles)
	type portInfo struct {
		hyp  int
		isU  bool
		pool rotation.Unused // candidate neighbor ports of other hypernodes
	}
	ports := make(map[graph.NodeID]*portInfo, 2*k)
	hyp := make([]cycle.Hypernode, k)
	for i, sc := range subcycles {
		r := src.Intn(sc.Len())
		hyp[i].U = sc.At(r)
		hyp[i].V = sc.At(r - 1)
		ports[hyp[i].U] = &portInfo{hyp: i, isU: true}
		ports[hyp[i].V] = &portInfo{hyp: i, isU: false}
	}
	for p, info := range ports {
		for _, nb := range g.Neighbors(p) {
			if o, ok := ports[nb]; ok && o.hyp != info.hyp {
				info.pool = append(info.pool, nb)
			}
		}
	}
	hyp[0].Pos = 1
	head := 0
	pathLen := int32(1)
	maxSteps := 4 * rotation.DefaultMaxSteps(k)
	var steps int64

	exitPortOf := func(h int) graph.NodeID {
		if hyp[h].Reversed {
			return hyp[h].U
		}
		return hyp[h].V
	}
	enterPortOf := func(h int) graph.NodeID {
		if hyp[h].Reversed {
			return hyp[h].V
		}
		return hyp[h].U
	}

	for {
		if steps >= maxSteps {
			return nil, steps, errors.New("hypernode rotation exceeded step budget")
		}
		x := exitPortOf(head)
		target, ok := ports[x].pool.Pop(src)
		if !ok {
			return nil, steps, errors.New("hypernode head out of candidate edges")
		}
		steps++
		info := ports[target]
		info.pool.Remove(x)
		kk := info.hyp
		switch {
		case hyp[kk].Pos == 1 && target == enterPortOf(kk) && pathLen == int32(k):
			// Closed: splice the lifted cycle.
			succ := make([]graph.NodeID, g.N())
			for _, sc := range subcycles {
				for i := 0; i < sc.Len(); i++ {
					succ[sc.At(i)] = sc.At(i + 1)
				}
			}
			hc, err := cycle.SpliceHypernodes(succ, hyp)
			return hc, steps, err
		case hyp[kk].Pos == 0:
			hyp[kk].Pos = pathLen + 1
			hyp[kk].Reversed = !info.isU // entering at v means flipped orientation
			head = kk
			pathLen++
		case target == exitPortOf(kk):
			// Rotation at j = hyp[kk].Pos: reverse segment (j, h].
			j, h := hyp[kk].Pos, pathLen
			newHead := -1
			for c := range hyp {
				if j < hyp[c].Pos && hyp[c].Pos <= h {
					hyp[c].Pos = h + j + 1 - hyp[c].Pos
					hyp[c].Reversed = !hyp[c].Reversed
					if hyp[c].Pos == h {
						newHead = c
					}
				}
			}
			if newHead < 0 {
				return nil, steps, errors.New("rotation produced no head")
			}
			head = newHead
		default:
			// Rejected probe: entry port occupied; head retries.
		}
	}
}

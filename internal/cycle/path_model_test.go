package cycle

import (
	"fmt"
	"testing"

	"dhc/internal/graph"
	"dhc/internal/rng"
)

// arrayPath is the straightforward reference model for Path: an ordered
// slice plus inverse position table, with eager O(h) suffix reversal. The
// splay-tree implementation must match it state-for-state on any op
// sequence.
type arrayPath struct {
	verts []graph.NodeID
	// pos[v] is v's 1-based position, 0 while v is off the path.
	pos []int
}

func newArrayPath(start graph.NodeID) *arrayPath {
	p := &arrayPath{}
	p.extend(start)
	return p
}

func (p *arrayPath) extend(u graph.NodeID) {
	for int(u) >= len(p.pos) {
		p.pos = append(p.pos, 0)
	}
	p.verts = append(p.verts, u)
	p.pos[u] = len(p.verts)
}

func (p *arrayPath) position(v graph.NodeID) int {
	if int(v) >= len(p.pos) {
		return 0
	}
	return p.pos[v]
}

func (p *arrayPath) head() graph.NodeID { return p.verts[len(p.verts)-1] }

func (p *arrayPath) rotate(j int) {
	h := len(p.verts)
	for lo, hi := j, h-1; lo < hi; lo, hi = lo+1, hi-1 {
		p.verts[lo], p.verts[hi] = p.verts[hi], p.verts[lo]
	}
	for i := j; i < h; i++ {
		p.pos[p.verts[i]] = i + 1
	}
}

// rotateAtBoth rotates path and model at v, which must be on the path and
// not the head, and checks RotateAt's j and new head against the model.
func rotateAtBoth(path *Path, model *arrayPath, v graph.NodeID) error {
	j, head := path.RotateAt(v)
	want := model.position(v)
	model.rotate(want)
	if j != want || head != model.head() {
		return fmt.Errorf("RotateAt(%d) = (%d, %d), model (%d, %d)", v, j, head, want, model.head())
	}
	return nil
}

// checkEnds compares Len, Head and Tail with the model.
func checkEnds(path *Path, model *arrayPath) error {
	h := len(model.verts)
	if path.Len() != h || path.Head() != model.head() || path.Tail() != model.verts[0] {
		return fmt.Errorf("Len/Head/Tail = %d/%d/%d, model %d/%d/%d",
			path.Len(), path.Head(), path.Tail(), h, model.head(), model.verts[0])
	}
	return nil
}

// checkOrder compares the full vertex order with the model.
func checkOrder(path *Path, model *arrayPath) error {
	got := path.Order()
	if len(got) != len(model.verts) {
		return fmt.Errorf("order has %d vertices, model %d", len(got), len(model.verts))
	}
	for i, v := range model.verts {
		if got[i] != v {
			return fmt.Errorf("order differs at %d: %d vs model %d", i, got[i], v)
		}
	}
	return nil
}

// TestPathMatchesArrayModel drives random Extend/Rotate/RotateAt sequences
// through both implementations and compares every observable after every
// op, then runs the degenerate shape: an extend-only prefix leaves the splay
// tree a single left path, and rotations alternate between its two ends.
func TestPathMatchesArrayModel(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		src := rng.New(seed)
		n := 200
		path := NewPath(0)
		model := newArrayPath(0)
		next := graph.NodeID(1)
		for op := 0; op < 2000; op++ {
			h := len(model.verts)
			switch {
			case int(next) < n && (h < 2 || src.Bernoulli(0.4)):
				path.Extend(next)
				model.extend(next)
				next++
			case src.Bernoulli(0.5):
				j := 1 + src.Intn(h-1)
				path.Rotate(j)
				model.rotate(j)
			default:
				v := model.verts[src.Intn(h-1)]
				if err := rotateAtBoth(path, model, v); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, op, err)
				}
			}
			if err := checkEnds(path, model); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
			// Spot-check positions and At on a few random vertices.
			for probe := 0; probe < 4; probe++ {
				v := graph.NodeID(src.Intn(n))
				if got, want := path.Position(v), model.position(v); got != want {
					t.Fatalf("seed %d op %d: Position(%d) = %d, model %d", seed, op, v, got, want)
				}
				i := 1 + src.Intn(len(model.verts))
				if path.At(i) != model.verts[i-1] {
					t.Fatalf("seed %d op %d: At(%d) = %d, model %d",
						seed, op, i, path.At(i), model.verts[i-1])
				}
			}
		}
		if err := checkOrder(path, model); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}

	const h = 1 << 14
	path := NewPath(0)
	model := newArrayPath(0)
	for v := graph.NodeID(1); v < h; v++ {
		path.Extend(v)
		model.extend(v)
	}
	for op := 0; op < 1<<12; op++ {
		v := model.verts[0]
		if op%2 == 1 {
			v = model.verts[h-2]
		}
		if err := rotateAtBoth(path, model, v); err != nil {
			t.Fatalf("degenerate op %d: %v", op, err)
		}
	}
	if err := checkOrder(path, model); err != nil {
		t.Fatalf("degenerate: %v", err)
	}
}

// FuzzPath decodes its input into Extend, RotateAt, Rotate, Position and At
// ops, two bytes each (op, argument), and checks each against arrayPath.
// Extend takes any vertex id below 256, so ids arrive sparse and out of
// order.
func FuzzPath(f *testing.F) {
	f.Add([]byte{0, 5, 0, 9, 0, 2, 1, 0, 2, 1, 3, 9, 4, 2})
	f.Add([]byte{0, 255, 0, 1, 0, 7, 0, 3, 1, 1, 1, 2, 2, 0, 2, 2, 3, 255, 4, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		path := NewPath(0)
		model := newArrayPath(0)
		for i := 0; i+1 < len(ops); i += 2 {
			arg := int(ops[i+1])
			h := len(model.verts)
			switch ops[i] % 5 {
			case 0:
				v := graph.NodeID(arg)
				if model.position(v) != 0 {
					if !path.Contains(v) {
						t.Fatalf("op %d: Contains(%d) false for an on-path vertex", i, v)
					}
					continue
				}
				if path.Contains(v) {
					t.Fatalf("op %d: Contains(%d) true for an off-path vertex", i, v)
				}
				path.Extend(v)
				model.extend(v)
			case 1:
				if h < 2 {
					continue
				}
				if err := rotateAtBoth(path, model, model.verts[arg%(h-1)]); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			case 2:
				if h < 2 {
					continue
				}
				j := 1 + arg%(h-1)
				path.Rotate(j)
				model.rotate(j)
			case 3:
				v := graph.NodeID(arg)
				if got, want := path.Position(v), model.position(v); got != want {
					t.Fatalf("op %d: Position(%d) = %d, model %d", i, v, got, want)
				}
			case 4:
				k := 1 + arg%h
				if got, want := path.At(k), model.verts[k-1]; got != want {
					t.Fatalf("op %d: At(%d) = %d, model %d", i, k, got, want)
				}
			}
			if err := checkEnds(path, model); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
		if err := checkOrder(path, model); err != nil {
			t.Fatal(err)
		}
	})
}

package cycle

import (
	"fmt"
	"testing"

	"dhc/internal/graph"
	"dhc/internal/rng"
)

var sinkJ int

// BenchmarkRotateAt times one rotation at a uniformly random on-path vertex
// other than the head, after h Extends of 0..h-1; ns/op is ns per rotation.
func BenchmarkRotateAt(b *testing.B) {
	for _, h := range []int{1 << 12, 1 << 16, 1 << 20} {
		b.Run(fmt.Sprintf("h=%d", h), func(b *testing.B) {
			p := NewPath(0)
			for v := 1; v < h; v++ {
				p.Extend(graph.NodeID(v))
			}
			src := rng.New(1)
			head := p.Head()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v := graph.NodeID(src.Intn(h))
				for v == head {
					v = graph.NodeID(src.Intn(h))
				}
				sinkJ, head = p.RotateAt(v)
			}
		})
	}
}

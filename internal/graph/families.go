package graph

// Generator families beyond the paper's G(n, p) universe: the phase-transition
// atlas workloads. Each generator derives every random choice from the given
// rng.Source (a pure function of the caller's seed), emits edges through the
// streaming BuilderCSR path, and produces the same CSR layout as the core
// generators, so the sweep harness and engines treat all families uniformly.
//
//   - ChungLu: the expected-degree power-law model — heavy-tailed degrees,
//     the paper's i.i.d. edge assumption broken by weight skew.
//   - Geometric: the random geometric graph on the unit square — edges from
//     spatial proximity, heavily clustered, the opposite of an expander.
//   - SBM: the stochastic block model — community structure with dense
//     blocks and sparse cuts.
//   - Hypercube / Torus: deterministic structured lattices, the atlas's
//     ground-truth controls (their Hamiltonicity is known by construction).

import (
	"fmt"
	"math"

	"dhc/internal/rng"
)

// ChungLu samples the Chung–Lu expected-degree power-law graph: vertex i
// carries weight w_i proportional to (i+1)^(-1/(exponent-1)), scaled so the
// mean weight is avgDeg, and each pair (i, j) is an edge independently with
// probability min(1, w_i·w_j/Σw). The resulting degree sequence follows a
// power law with the given exponent (tail P[deg > d] ~ d^(1-exponent));
// exponent must exceed 2 so the weight sum stays linear in n.
//
// Sampling uses the Miller–Hagberg skipping procedure: weights are
// non-increasing in the vertex index by construction, so for each row u the
// candidate column v advances by geometric jumps at the current upper-bound
// probability and lands are accepted with the exact ratio — expected
// O(n + m) work, never O(n²).
func ChungLu(n int, avgDeg, exponent float64, src *rng.Source) *Graph {
	if exponent <= 2 {
		panic(fmt.Sprintf("graph: ChungLu exponent %v must exceed 2", exponent))
	}
	if n < 2 || avgDeg <= 0 || math.IsNaN(avgDeg) {
		return newCSR(max(n, 0), nil)
	}
	if avgDeg > float64(n-1) {
		avgDeg = float64(n - 1)
	}
	alpha := 1 / (exponent - 1)
	w := make([]float64, n)
	var sum float64
	for i := range w {
		w[i] = math.Pow(float64(i+1), -alpha)
		sum += w[i]
	}
	// Scale so Σw = n·avgDeg; the pair probability divisor is that same sum.
	scale := avgDeg * float64(n) / sum
	total := avgDeg * float64(n)
	for i := range w {
		w[i] *= scale
	}
	b := NewBuilderCSR(n, int(total/2)+n)
	for u := 0; u < n-1; u++ {
		v := u + 1
		p := math.Min(1, w[u]*w[v]/total)
		for v < n && p > 0 {
			if p < 1 {
				v += src.Geometric(math.Log1p(-p))
			}
			if v >= n {
				break
			}
			// Weights are non-increasing, so the true probability q for the
			// landed column never exceeds the jump probability p; accepting
			// with ratio q/p makes the pair's overall probability exactly q.
			q := math.Min(1, w[u]*w[v]/total)
			if q >= p || src.Float64() < q/p {
				b.Add(NodeID(u), NodeID(v))
			}
			p = q
			v++
		}
	}
	return b.Build()
}

// Geometric samples a random geometric graph: n points uniform on the unit
// square, an edge wherever two points lie within the given radius. Neighbor
// search is grid-bucketed — the square is cut into cells no narrower than the
// radius, so each point only compares against its 3×3 cell neighborhood —
// keeping construction near-linear in n + m instead of O(n²).
func Geometric(n int, radius float64, src *rng.Source) *Graph {
	if n <= 0 {
		return newCSR(0, nil)
	}
	// Draw the point set first (x then y per point, in vertex order) so the
	// layout of the instance is independent of the radius branch taken below.
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = src.Float64()
		ys[i] = src.Float64()
	}
	if radius <= 0 || math.IsNaN(radius) {
		return newCSR(n, nil)
	}
	if radius >= math.Sqrt2 {
		// Every pair of unit-square points is within √2.
		return Complete(n)
	}
	// Cell width 1/side must stay ≥ radius for the 3×3 neighborhood to cover
	// the disc; capping side near √n bounds the bucket table at O(n) cells
	// when the radius is tiny.
	side := int(1 / radius)
	if side < 1 {
		side = 1
	}
	if maxSide := int(math.Sqrt(float64(n))) + 1; side > maxSide {
		side = maxSide
	}
	cellOf := func(x float64) int {
		c := int(x * float64(side))
		if c >= side {
			c = side - 1
		}
		return c
	}
	buckets := make([][]int32, side*side)
	for i := 0; i < n; i++ {
		c := cellOf(ys[i])*side + cellOf(xs[i])
		buckets[c] = append(buckets[c], int32(i))
	}
	r2 := radius * radius
	expected := math.Pi * r2 * float64(n) / 2 * float64(n)
	hintF := math.Min(expected, float64(n)*float64(n-1)/2)
	hint := n * 8
	if hintF < float64(hint) {
		hint = int(hintF)
	}
	b := NewBuilderCSR(n, hint)
	for i := 0; i < n; i++ {
		ci, cj := cellOf(xs[i]), cellOf(ys[i])
		for dj := -1; dj <= 1; dj++ {
			for di := -1; di <= 1; di++ {
				nx, ny := ci+di, cj+dj
				if nx < 0 || ny < 0 || nx >= side || ny >= side {
					continue
				}
				for _, j := range buckets[ny*side+nx] {
					if int(j) <= i {
						continue
					}
					dx, dy := xs[i]-xs[j], ys[i]-ys[j]
					if dx*dx+dy*dy <= r2 {
						b.Add(NodeID(i), NodeID(j))
					}
				}
			}
		}
	}
	return b.Build()
}

// GeometricThresholdR returns the random geometric graph's connectivity-
// threshold radius scaled by c: r = c·sqrt(ln n / (π·n)). At c = 1 the
// expected neighborhood size is ln n, the classic connectivity knee; the
// sweep's geometric family uses c as its density parameter the way gnp uses
// the threshold constant of p = c·ln n/n^δ.
func GeometricThresholdR(n int, c float64) float64 {
	if n < 2 {
		return 0
	}
	return c * math.Sqrt(math.Log(float64(n))/(math.Pi*float64(n)))
}

// SBM samples a stochastic block model: vertices are cut into k contiguous
// near-equal blocks, and each pair is an edge independently with probability
// pIn (same block) or pOut (different blocks). Both probabilities are clamped
// to [0, 1]. Within-block edges reuse the G(n, p) geometric skipping; cross-
// block pairs stream through the same skipping over the bipartite index grid,
// so construction is O(n + m) regardless of k.
func SBM(n, k int, pIn, pOut float64, src *rng.Source) *Graph {
	if k < 1 {
		panic(fmt.Sprintf("graph: SBM needs k >= 1 blocks, got %d", k))
	}
	if n < 2 {
		return newCSR(max(n, 0), nil)
	}
	if k > n {
		k = n
	}
	pIn = clampProb(pIn)
	pOut = clampProb(pOut)
	start := func(i int) int { return i * n / k }
	// Estimate the edge count in float and clamp before converting: at
	// n >= 10^7 the raw pair-count products overflow 32-bit ints, and a
	// float-to-int conversion out of range is undefined.
	hintF := pIn*float64(n)*float64(n)/float64(k)/2 +
		pOut*float64(n)*float64(n)/2
	hint := n * 8
	if hintF < float64(hint) {
		hint = int(hintF)
	}
	b := NewBuilderCSR(n, hint)
	for a := 0; a < k; a++ {
		base, size := start(a), start(a+1)-start(a)
		iterateGNP(size, pIn, src, func(v, w NodeID) {
			b.Add(NodeID(base)+v, NodeID(base)+w)
		})
		for c := a + 1; c < k; c++ {
			baseC, sizeC := start(c), start(c+1)-start(c)
			iterateBipartite(size, sizeC, pOut, src, func(i, j int) {
				b.Add(NodeID(base+i), NodeID(baseC+j))
			})
		}
	}
	return b.Build()
}

// iterateBipartite enumerates the edges of a random bipartite Bernoulli(p)
// block with na left and nb right vertices by geometric skipping over the
// row-major pair index, in expected O(1 + p·na·nb) time. The pair index runs
// in int64: na·nb exceeds 32 bits well before the block sizes that 10^7-vertex
// SBM grids produce, and wrapping it would silently truncate the block.
func iterateBipartite(na, nb int, p float64, src *rng.Source, visit func(i, j int)) {
	if na <= 0 || nb <= 0 || p <= 0 {
		return
	}
	total := int64(na) * int64(nb)
	if p >= 1 {
		for t := int64(0); t < total; t++ {
			visit(int(t/int64(nb)), int(t%int64(nb)))
		}
		return
	}
	logq := math.Log1p(-p)
	t := int64(src.Geometric(logq))
	for t < total {
		visit(int(t/int64(nb)), int(t%int64(nb)))
		t += 1 + int64(src.Geometric(logq))
	}
}

// clampProb clamps a probability to [0, 1] (NaN maps to 0).
func clampProb(p float64) float64 {
	if !(p > 0) {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// Hypercube returns the dim-dimensional hypercube Q_dim on 2^dim vertices:
// two vertices are adjacent iff their binary labels differ in exactly one
// bit. Q_dim is dim-regular, bipartite by label parity, and Hamiltonian for
// dim >= 2 (any Gray code is a Hamiltonian cycle). dim must be in [0, 30]
// so the vertex count fits the CSR layout.
func Hypercube(dim int) *Graph {
	if dim < 0 || dim > 30 {
		panic(fmt.Sprintf("graph: Hypercube dimension %d outside [0, 30]", dim))
	}
	n := 1 << dim
	b := NewBuilderCSR(n, n*dim/2)
	for v := 0; v < n; v++ {
		for k := 0; k < dim; k++ {
			if w := v | 1<<k; w != v {
				b.Add(NodeID(v), NodeID(w))
			}
		}
	}
	return b.Build()
}

// Torus returns the rows×cols torus: the grid graph with wraparound edges in
// both dimensions. For rows, cols >= 3 it is 4-regular and Hamiltonian (a
// boustrophedon walk closes through the wrap edges). Degenerate dimensions
// collapse gracefully: a wrap edge that duplicates a grid edge (length-2
// dimension) or forms a self-loop (length-1 dimension) is dropped by the
// builder.
func Torus(rows, cols int) *Graph {
	if rows < 1 || cols < 1 {
		panic(fmt.Sprintf("graph: Torus dimensions %dx%d must be positive", rows, cols))
	}
	b := NewBuilderCSR(rows*cols, 2*rows*cols)
	id := func(r, c int) NodeID { return NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			b.Add(id(r, c), id((r+1)%rows, c))
			b.Add(id(r, c), id(r, (c+1)%cols))
		}
	}
	return b.Build()
}

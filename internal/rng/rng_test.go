package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("stream diverged at step %d: %d != %d", i, got, want)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams from different seeds collided %d/100 times", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split(1)
	c2 := parent.Split(2)
	c1again := parent.Split(1)
	for i := 0; i < 100; i++ {
		v1, v2, v3 := c1.Uint64(), c2.Uint64(), c1again.Uint64()
		if v1 != v3 {
			t.Fatalf("Split(1) not deterministic at step %d", i)
		}
		if v1 == v2 {
			t.Fatalf("Split(1) and Split(2) collided at step %d", i)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(11)
	const n, trials = 10, 100000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: count %d deviates from expected %.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := New(9)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliMean(t *testing.T) {
	r := New(13)
	const p, trials = 0.3, 100000
	hits := 0
	for i := 0; i < trials; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	mean := float64(hits) / trials
	if math.Abs(mean-p) > 0.01 {
		t.Fatalf("Bernoulli(%v) empirical mean %v", p, mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	check := func(seed uint64, n uint8) bool {
		p := New(seed).Perm(int(n))
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= int(n) || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(p) == int(n)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(21)
	const p, trials = 0.2, 200000
	sum := 0.0
	for i := 0; i < trials; i++ {
		sum += float64(r.Geometric(math.Log1p(-p)))
	}
	mean := sum / trials
	want := (1 - p) / p // mean of geometric on {0,1,...}
	if math.Abs(mean-want) > 0.1 {
		t.Fatalf("Geometric(%v) empirical mean %v, want ~%v", p, mean, want)
	}
}

func TestGeometricEdges(t *testing.T) {
	r := New(22)
	if got := r.Geometric(math.Log1p(-1)); got != 0 {
		t.Fatalf("Geometric(1) = %d, want 0", got)
	}
	if got := r.Geometric(math.Log1p(-0)); got != math.MaxInt32 {
		t.Fatalf("Geometric(0) = %d, want MaxInt32", got)
	}
}

// TestGeometricSkipMatchesFormula pins GeometricSkip to the inversion
// Geometric used before the draw and the arithmetic were split, and
// Geometric to one Float64 draw passed through GeometricSkip.
func TestGeometricSkipMatchesFormula(t *testing.T) {
	formula := func(u, logq float64) int {
		if u == 0 {
			u = math.SmallestNonzeroFloat64
		}
		k := math.Floor(math.Log(u) / logq)
		if k > math.MaxInt32 {
			return math.MaxInt32
		}
		return int(k)
	}
	us := []float64{
		0, // read as the smallest nonzero float
		math.SmallestNonzeroFloat64,
		1.0 / (1 << 53), // Float64's smallest nonzero output
		0.25, 0.5, 0.75,
		1 - 1.0/(1<<53), // Float64's largest output, just below 1
	}
	r := New(23)
	for i := 0; i < 64; i++ {
		us = append(us, r.Float64())
	}
	for _, p := range []float64{1e-9, 0.01, 0.5} {
		logq := math.Log1p(-p)
		for _, u := range us {
			if got, want := GeometricSkip(u, logq), formula(u, logq); got != want {
				t.Errorf("p=%v u=%v: GeometricSkip %d, formula %d", p, u, got, want)
			}
		}
		if got := GeometricSkip(1-1.0/(1<<53), logq); got != 0 {
			t.Errorf("p=%v: skip just below u=1 is %d, want 0", p, got)
		}
		a, b := New(24), New(24)
		for i := 0; i < 1000; i++ {
			if got, want := a.Geometric(logq), GeometricSkip(b.Float64(), logq); got != want {
				t.Fatalf("p=%v draw %d: Geometric %d, GeometricSkip(Float64) %d", p, i, got, want)
			}
		}
		if *a != *b {
			t.Fatalf("p=%v: Geometric and Float64 left the source in different states", p)
		}
	}
	// At p = 1e-9 the smallest uniforms skip ~7·10^11 pairs: clamped.
	logq := math.Log1p(-1e-9)
	for _, u := range []float64{0, math.SmallestNonzeroFloat64, 1.0 / (1 << 53)} {
		if got := GeometricSkip(u, logq); got != math.MaxInt32 {
			t.Errorf("p=1e-9 u=%v: skip %d, want the MaxInt32 clamp", u, got)
		}
	}
}

func TestMul64(t *testing.T) {
	cases := []struct {
		a, b   uint64
		hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
	}
	for _, c := range cases {
		hi, lo := mul64(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Intn(1000)
	}
}

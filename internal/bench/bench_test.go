package bench

import (
	"math"
	"testing"
)

func TestFitExponent(t *testing.T) {
	// y = 3 x^2 exactly.
	xs := []float64{1, 2, 4, 8, 16}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 * x * x
	}
	if b := FitExponent(xs, ys); math.Abs(b-2) > 1e-9 {
		t.Fatalf("exponent %v, want 2", b)
	}
	if !math.IsNaN(FitExponent([]float64{1}, []float64{1})) {
		t.Fatal("single point should be NaN")
	}
	if !math.IsNaN(FitExponent([]float64{0, -1}, []float64{1, 1})) {
		t.Fatal("non-positive xs should be NaN")
	}
}

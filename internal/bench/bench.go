// Package bench holds the read-only decoder of the legacy BENCH_<rev>.json
// files and hcsweep's report section (json.go), the engine vocabulary that
// hcsweep, hcrun and the service parse (grid.go), and FitExponent, the
// log-log slope sweep.Fits reports. The paper's per-theorem experiments are
// the root package's Benchmark{E,D,A}* functions (bench_test.go); success
// rates and slope fits come from hcsweep grids.
package bench

import "math"

// FitExponent least-squares fits log(y) = a + b·log(x) and returns b, the
// empirical scaling exponent. Points with non-positive values are skipped.
// It returns NaN with fewer than two usable points.
func FitExponent(xs []float64, ys []float64) float64 {
	var sx, sy, sxx, sxy float64
	n := 0
	for i := range xs {
		if xs[i] <= 0 || ys[i] <= 0 {
			continue
		}
		lx, ly := math.Log(xs[i]), math.Log(ys[i])
		sx += lx
		sy += ly
		sxx += lx * lx
		sxy += lx * ly
		n++
	}
	if n < 2 {
		return math.NaN()
	}
	fn := float64(n)
	den := fn*sxx - sx*sx
	if den == 0 {
		return math.NaN()
	}
	return (fn*sxy - sx*sy) / den
}

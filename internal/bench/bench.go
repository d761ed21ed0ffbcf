// Package bench holds the experiment tables that regenerate the paper's
// per-theorem results (experiments.go, one E* function per theorem, printed
// by cmd/hcbench), the read-only decoder of the legacy BENCH_<rev>.json files
// and hcsweep's report section (json.go), and the engine vocabulary that
// hcsweep, hcrun and the service parse (grid.go).
package bench

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Row is one sweep point of an experiment.
type Row struct {
	Label  string
	N      int
	P      float64
	Rounds int64
	Steps  int64
	Extra  map[string]float64
	OK     bool
}

// Table is a named collection of rows with column order.
type Table struct {
	Name    string
	Caption string
	Rows    []Row
	// ExtraCols lists Extra keys to print, in order.
	ExtraCols []string
}

// Append adds a row.
func (t *Table) Append(r Row) { t.Rows = append(t.Rows, r) }

// Write renders the table as aligned text.
func (t *Table) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "## %s\n%s\n\n", t.Name, t.Caption); err != nil {
		return err
	}
	header := []string{"label", "n", "p", "rounds", "steps", "ok"}
	header = append(header, t.ExtraCols...)
	if _, err := fmt.Fprintln(w, strings.Join(header, "\t")); err != nil {
		return err
	}
	for _, r := range t.Rows {
		cols := []string{
			r.Label,
			fmt.Sprintf("%d", r.N),
			fmt.Sprintf("%.5f", r.P),
			fmt.Sprintf("%d", r.Rounds),
			fmt.Sprintf("%d", r.Steps),
			fmt.Sprintf("%v", r.OK),
		}
		for _, k := range t.ExtraCols {
			cols = append(cols, fmt.Sprintf("%.4g", r.Extra[k]))
		}
		if _, err := fmt.Fprintln(w, strings.Join(cols, "\t")); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

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

// Columns extracts (x, y) float series from rows via accessor functions,
// skipping failed rows.
func Columns(rows []Row, x, y func(Row) float64) ([]float64, []float64) {
	var xs, ys []float64
	for _, r := range rows {
		if !r.OK {
			continue
		}
		xs = append(xs, x(r))
		ys = append(ys, y(r))
	}
	return xs, ys
}

// XN is the n accessor.
func XN(r Row) float64 { return float64(r.N) }

// YRounds is the rounds accessor.
func YRounds(r Row) float64 { return float64(r.Rounds) }

// YSteps is the steps accessor.
func YSteps(r Row) float64 { return float64(r.Steps) }

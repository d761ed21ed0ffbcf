package bench

import (
	"bytes"
	"math"
	"strings"
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

func TestTableWrite(t *testing.T) {
	tb := &Table{Name: "X", Caption: "c", ExtraCols: []string{"k"}}
	tb.Append(Row{Label: "a", N: 10, P: 0.5, Rounds: 7, Steps: 3, OK: true,
		Extra: map[string]float64{"k": 1.5}})
	var buf bytes.Buffer
	if err := tb.Write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"## X", "label", "a\t10", "1.5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestColumns(t *testing.T) {
	rows := []Row{
		{N: 10, Rounds: 100, OK: true},
		{N: 20, Rounds: 200, OK: false}, // skipped
		{N: 30, Rounds: 300, OK: true},
	}
	xs, ys := Columns(rows, XN, YRounds)
	if len(xs) != 2 || xs[1] != 30 || ys[1] != 300 {
		t.Fatalf("columns wrong: %v %v", xs, ys)
	}
}

func TestE3Concentration(t *testing.T) {
	tb := E3(Config{Seed: 1})
	for _, r := range tb.Rows {
		// Chernoff concentration width scales as 1/sqrt(mean class size);
		// the paper's [1/2, 3/2] band is the asymptotic statement.
		mean := float64(r.N) / r.Extra["k"]
		tol := 5 / math.Sqrt(mean)
		if r.Extra["min_ratio"] < 1-tol || r.Extra["max_ratio"] > 1+tol {
			t.Fatalf("partition sizes outside concentration band ±%.2f: %+v", tol, r)
		}
	}
}

func TestD1DiameterSmall(t *testing.T) {
	tb := D1(Config{Seed: 2, Scale: 0.25})
	for _, r := range tb.Rows {
		if !r.OK {
			t.Fatalf("disconnected sample graph at n=%d", r.N)
		}
		if r.Extra["diameter"] > 6*r.Extra["bound"] {
			t.Fatalf("diameter %v far above Chung-Lu bound %v at n=%d",
				r.Extra["diameter"], r.Extra["bound"], r.N)
		}
	}
}

func TestE1SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	tb := E1(Config{Seed: 3, Scale: 0.25, Trials: 1})
	for _, r := range tb.Rows {
		if !r.OK {
			t.Fatalf("E1 failed at n=%d", r.N)
		}
		// Theorem 2 budget: steps/(n ln n) <= 7.
		if r.Extra["steps_over_nlogn"] > 7 {
			t.Fatalf("steps ratio %v exceeds Theorem 2 budget at n=%d",
				r.Extra["steps_over_nlogn"], r.N)
		}
	}
}

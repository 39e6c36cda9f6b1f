package main

import "testing"

// TestOverheadVerdict pins the overhead gates' decision on the median
// of per-pair on/off ratios: equal throughput passes for odd and even
// pair counts, a single outlier pair cannot fail the gate, and a
// uniform 5% slowdown fails it.
func TestOverheadVerdict(t *testing.T) {
	cases := []struct {
		name   string
		ratios []float64
		median float64
		pass   bool
	}{
		{"equal-odd", []float64{1, 1, 1, 1, 1}, 1, true},
		{"equal-even", []float64{1, 1, 1, 1, 1, 1}, 1, true},
		{"noisy-odd", []float64{1.08, 0.90, 1.00, 0.99, 1.03}, 1.00, true},
		{"noisy-even", []float64{1.08, 0.90, 0.98, 1.02}, 1.00, true},
		{"one-outlier", []float64{1, 1, 0.5, 1, 1, 1, 1}, 1, true},
		{"slowdown-odd", []float64{0.95, 0.95, 0.95, 0.95, 0.95}, 0.95, false},
		{"slowdown-even", []float64{0.95, 0.95, 0.95, 0.95}, 0.95, false},
		{"empty", nil, 0, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			median, pass := overheadVerdict(c.ratios)
			if pass != c.pass || median < c.median-1e-9 || median > c.median+1e-9 {
				t.Fatalf("overheadVerdict(%v) = %.3f, %v; want %.3f, %v", c.ratios, median, pass, c.median, c.pass)
			}
		})
	}
}

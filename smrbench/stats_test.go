package main

import (
	"runtime/metrics"
	"testing"
	"time"
)

func TestPercentilesReportSampleCount(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // 200..1, unsorted
	}
	got := percentiles(xs, 0.5, 0.99)
	want := []percentile{{Value: 100, N: 200}, {Value: 198, N: 200}}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("quantile %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if p := percentiles(nil, 0.99)[0]; p != (percentile{}) {
		t.Errorf("empty sample: %+v, want zero value and N = 0", p)
	}
}

func TestNsHistQuantile(t *testing.T) {
	var h nsHist
	for i := 0; i < 99; i++ {
		h.record(1000 * time.Nanosecond)
	}
	h.record(50 * time.Microsecond)
	p50, p99, max := h.quantile(0.5), h.quantile(0.99), h.quantile(1)
	if p50.N != 100 || p99.N != 100 {
		t.Fatalf("sample counts %d, %d, want 100", p50.N, p99.N)
	}
	// Bucket lower bounds are within 1/16 of the recorded value.
	if p50.Value > 1000 || p50.Value < 1000*15/16 || p99.Value != p50.Value {
		t.Errorf("p50 = %v, p99 = %v, want both the 1000 ns bucket", p50.Value, p99.Value)
	}
	if max.Value > 50000 || max.Value < 50000*15/16 {
		t.Errorf("max = %v, want the 50 µs bucket", max.Value)
	}
	for _, ns := range []int64{0, 15, 16, 17, 31, 32, 1000, 1 << 40} {
		low := nsBucketLow(nsBucket(ns))
		if low > ns || ns-low > ns/16 {
			t.Errorf("nsBucket(%d) has lower bound %d", ns, low)
		}
	}
	if p := new(nsHist).quantile(0.5); p.N != 0 {
		t.Errorf("empty histogram reports %d samples", p.N)
	}
}

func TestHistQuantileOfDelta(t *testing.T) {
	before := &metrics.Float64Histogram{Counts: []uint64{5, 0, 0}, Buckets: []float64{0, 1, 2, 3}}
	after := &metrics.Float64Histogram{Counts: []uint64{5, 99, 1}, Buckets: []float64{0, 1, 2, 3}}
	p := histQuantile(before, after, 0.99)
	if p.N != 100 || p.Value != 2 {
		t.Errorf("p99 of the delta = %+v, want upper bound 2 over 100 samples", p)
	}
}

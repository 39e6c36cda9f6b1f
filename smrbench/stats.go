package main

import (
	"math"
	"math/bits"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// percentile is one order statistic together with the number of
// samples it was taken over, so a reader can tell a p99 of 40 samples
// from a p99 of 40 000.
type percentile struct {
	Value float64
	N     int
}

// percentiles returns the nearest-rank q-quantiles of xs (sorted in
// place). An empty sample yields zero values with N = 0.
func percentiles(xs []float64, qs ...float64) []percentile {
	sort.Float64s(xs)
	out := make([]percentile, len(qs))
	for i, q := range qs {
		out[i].N = len(xs)
		if len(xs) == 0 {
			continue
		}
		rank := int(math.Ceil(q*float64(len(xs)))) - 1
		out[i].Value = xs[min(max(rank, 0), len(xs)-1)]
	}
	return out
}

// nsHist is a lock-free log-linear histogram of nanosecond durations
// (16 sub-buckets per power of two, about 6% resolution), for samples
// recorded from many goroutines on a hot path where appending to a
// shared slice would serialize them.
type nsHist struct {
	buckets [64 * 16]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
}

func nsBucket(ns int64) int {
	if ns < 16 {
		return int(max(ns, 0))
	}
	major := 63 - bits.LeadingZeros64(uint64(ns))
	minor := int(ns>>(major-4)) & 15
	return (major-3)*16 + minor
}

// nsBucketLow is the smallest duration nsBucket maps to bucket i.
func nsBucketLow(i int) int64 {
	if i < 16 {
		return int64(i)
	}
	major := i/16 + 3
	return int64(16+i%16) << (major - 4)
}

func (h *nsHist) record(d time.Duration) {
	h.buckets[nsBucket(int64(d))].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
}

// quantile returns the lower bound of the bucket holding the q-th
// sample, with the sample count.
func (h *nsHist) quantile(q float64) percentile {
	n := h.count.Load()
	p := percentile{N: int(n)}
	if n == 0 {
		return p
	}
	rank := int64(math.Ceil(q * float64(n)))
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen >= rank {
			p.Value = float64(nsBucketLow(i))
			return p
		}
	}
	return p
}

// cpuTime is the process's user plus system CPU time (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Runtime metrics the benchmark reads.
const (
	rtAllocObjects = "/gc/heap/allocs:objects"
	rtAllocBytes   = "/gc/heap/allocs:bytes"
	rtGCCycles     = "/gc/cycles/total:gc-cycles"
	rtGCPauses     = "/sched/pauses/total/gc:seconds"
	rtSchedLatency = "/sched/latencies:seconds"
	rtLiveHeap     = "/gc/heap/live:bytes"
)

// rtSnapshot is one read of the cumulative runtime metrics above.
type rtSnapshot struct {
	allocObjects, allocBytes, gcCycles uint64
	gcPauses, schedLatency             *metrics.Float64Histogram
}

func readRuntime() rtSnapshot {
	s := []metrics.Sample{
		{Name: rtAllocObjects}, {Name: rtAllocBytes}, {Name: rtGCCycles},
		{Name: rtGCPauses}, {Name: rtSchedLatency},
	}
	metrics.Read(s)
	return rtSnapshot{
		allocObjects: s[0].Value.Uint64(),
		allocBytes:   s[1].Value.Uint64(),
		gcCycles:     s[2].Value.Uint64(),
		gcPauses:     s[3].Value.Float64Histogram(),
		schedLatency: s[4].Value.Float64Histogram(),
	}
}

// histQuantile returns the q-quantile of the observations added to a
// runtime histogram between two reads, as the upper bound of the
// bucket holding it (its lower bound for the open-ended last bucket),
// with the number of observations.
func histQuantile(before, after *metrics.Float64Histogram, q float64) percentile {
	var n uint64
	for i := range after.Counts {
		n += after.Counts[i] - before.Counts[i]
	}
	p := percentile{N: int(n)}
	if n == 0 {
		return p
	}
	rank := uint64(math.Ceil(q * float64(n)))
	var seen uint64
	for i := range after.Counts {
		seen += after.Counts[i] - before.Counts[i]
		if seen >= rank {
			p.Value = after.Buckets[i+1]
			if math.IsInf(p.Value, 1) {
				p.Value = after.Buckets[i]
			}
			return p
		}
	}
	return p
}

// heapPeak samples the live heap until stopped and keeps the largest
// value seen. The live heap is measured by each GC cycle, so sampling
// every few tens of milliseconds sees every cycle of a run.
type heapPeak struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: rtLiveHeap}}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak.Load() {
				h.peak.Store(v)
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak live heap in bytes.
// Calls after the first return the same peak.
func (h *heapPeak) finish() uint64 {
	h.once.Do(func() { close(h.stop) })
	<-h.done
	return h.peak.Load()
}

// Package bench provides the measurement machinery used by the
// evaluation harness: latency histograms with CDF extraction, throughput
// accounting, and busy-time CPU metering per component role.
//
// The CPU meter reproduces what the paper's CPU panels show (Figures 3
// and 4): each component loop (worker, scheduler, coordinator, acceptor)
// accrues the wall time it spends processing, excluding time blocked on
// channels. The harness reports Σbusy/wall × 100 per role, so "the
// scheduler is CPU-bound" appears as the scheduler role pinned near 100%.
package bench

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// CPUMeter accumulates busy time for a set of named roles. It is safe
// for concurrent use; the per-role counters are atomics.
type CPUMeter struct {
	mu    sync.Mutex
	roles map[string]*atomic.Int64
	start time.Time
}

// NewCPUMeter creates a meter; the observation window starts now.
func NewCPUMeter() *CPUMeter {
	return &CPUMeter{
		roles: make(map[string]*atomic.Int64),
		start: time.Now(),
	}
}

// Role returns the busy-time counter for a role, creating it on first
// use. Components hold on to the returned RoleMeter; Busy/Done pairs are
// a few nanoseconds of overhead. Role on a nil meter returns a nil
// RoleMeter, whose methods are no-ops, so metering is always optional.
func (m *CPUMeter) Role(name string) *RoleMeter {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.roles[name]
	if !ok {
		c = new(atomic.Int64)
		m.roles[name] = c
	}
	return &RoleMeter{busy: c}
}

// Reset restarts the observation window and zeroes all counters.
func (m *CPUMeter) Reset() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, c := range m.roles {
		c.Store(0)
	}
	m.start = time.Now()
}

// Snapshot returns the accumulated busy time per role plus the start
// of the observation window. The map lock is held only while the role
// pointers are copied — the atomic counters are read outside it — so
// scraping never contends with Role registration, let alone the
// worker loops.
func (m *CPUMeter) Snapshot() (busy map[string]time.Duration, since time.Time) {
	if m == nil {
		return nil, time.Time{}
	}
	m.mu.Lock()
	counters := make(map[string]*atomic.Int64, len(m.roles))
	for name, c := range m.roles {
		counters[name] = c
	}
	since = m.start
	m.mu.Unlock()

	busy = make(map[string]time.Duration, len(counters))
	for name, c := range counters {
		busy[name] = time.Duration(c.Load())
	}
	return busy, since
}

// Usage returns per-role CPU usage as a percentage of one core
// (100 = one core fully busy, 400 = four cores' worth) plus the total.
func (m *CPUMeter) Usage() (perRole map[string]float64, total float64) {
	busy, since := m.Snapshot()
	wall := time.Since(since).Seconds()
	if wall <= 0 {
		wall = math.SmallestNonzeroFloat64
	}
	perRole = make(map[string]float64, len(busy))
	for name, d := range busy {
		pct := d.Seconds() / wall * 100
		perRole[name] = pct
		total += pct
	}
	return perRole, total
}

// RoleMeter accrues busy time for one role.
type RoleMeter struct {
	busy *atomic.Int64
}

// Add accrues a pre-measured busy duration. The canonical metering
// pattern is an explicit start/Add pair around the processing block
// (t0 := time.Now(); ...; meter.Add(time.Since(t0))) — a closure-based
// Busy()/stop() API used to exist but cost one allocation per loop
// iteration on hot paths.
func (r *RoleMeter) Add(d time.Duration) {
	if r == nil {
		return
	}
	r.busy.Add(int64(d))
}

// Histogram is a log-bucketed latency histogram covering 1µs..~17min
// with ~4% relative resolution. It is safe for concurrent recording.
type Histogram struct {
	buckets [bucketCount]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	maxNs   atomic.Int64
}

const (
	// 64 major powers-of-two ranges × 16 minor divisions.
	minorBits   = 4
	minorCount  = 1 << minorBits
	majorCount  = 40
	bucketCount = majorCount * minorCount
)

// bucketIndex maps a duration to a bucket. Sub-microsecond values land
// in bucket 0.
func bucketIndex(d time.Duration) int {
	us := d.Microseconds()
	if us < minorCount {
		if us < 0 {
			us = 0
		}
		return int(us)
	}
	major := 63 - leadingZeros64(uint64(us))
	minor := (us >> (uint(major) - minorBits)) - minorCount
	idx := int(major-minorBits+1)*minorCount + int(minor)
	if idx >= bucketCount {
		return bucketCount - 1
	}
	return idx
}

// bucketValue returns the representative duration of a bucket (its lower
// bound).
func bucketValue(idx int) time.Duration {
	major := idx / minorCount
	minor := idx % minorCount
	if major == 0 {
		return time.Duration(minor) * time.Microsecond
	}
	us := (int64(minorCount) + int64(minor)) << (uint(major) - 1)
	return time.Duration(us) * time.Microsecond
}

func leadingZeros64(x uint64) int {
	n := 0
	for x&(1<<63) == 0 {
		x <<= 1
		n++
	}
	return n
}

// Record adds one latency observation.
func (h *Histogram) Record(d time.Duration) {
	h.buckets[bucketIndex(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(d))
	for {
		cur := h.maxNs.Load()
		if int64(d) <= cur || h.maxNs.CompareAndSwap(cur, int64(d)) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the exact sum of all observations in nanoseconds (the
// Prometheus summary `_sum` series, which must not be a mean×count
// reconstruction).
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Mean returns the mean latency.
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Max returns the largest recorded latency.
func (h *Histogram) Max() time.Duration { return time.Duration(h.maxNs.Load()) }

// Quantile returns the latency at quantile q in [0,1].
func (h *Histogram) Quantile(q float64) time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	target := int64(q * float64(n))
	if target >= n {
		target = n - 1
	}
	var seen int64
	for i := 0; i < bucketCount; i++ {
		seen += h.buckets[i].Load()
		if seen > target {
			return bucketValue(i)
		}
	}
	return h.Max()
}

// CDFPoint is one point of a cumulative latency distribution.
type CDFPoint struct {
	Latency  time.Duration
	Fraction float64
}

// CDF returns the cumulative distribution over the populated buckets.
func (h *Histogram) CDF() []CDFPoint {
	n := h.count.Load()
	if n == 0 {
		return nil
	}
	var (
		points []CDFPoint
		seen   int64
	)
	for i := 0; i < bucketCount; i++ {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		seen += c
		points = append(points, CDFPoint{
			Latency:  bucketValue(i),
			Fraction: float64(seen) / float64(n),
		})
	}
	return points
}

// Merge adds the contents of other into h.
func (h *Histogram) Merge(other *Histogram) {
	for i := 0; i < bucketCount; i++ {
		if c := other.buckets[i].Load(); c != 0 {
			h.buckets[i].Add(c)
		}
	}
	h.count.Add(other.count.Load())
	h.sum.Add(other.sum.Load())
	for {
		cur := h.maxNs.Load()
		om := other.maxNs.Load()
		if om <= cur || h.maxNs.CompareAndSwap(cur, om) {
			break
		}
	}
}

// Result summarises one benchmark run of one technique.
type Result struct {
	Technique  string
	Threads    int
	Ops        int64
	Elapsed    time.Duration
	Latency    *Histogram
	CPUPercent float64            // total across roles
	CPUByRole  map[string]float64 // per role
	Extra      map[string]float64 // flattened metrics registry (replicated runs)
	Breakdown  string             // per-stage latency table (tracing on)
}

// Kcps returns throughput in kilo-commands per second, the paper's unit.
func (r *Result) Kcps() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds() / 1000
}

// String renders a single result line.
func (r *Result) String() string {
	mean := time.Duration(0)
	p99 := time.Duration(0)
	if r.Latency != nil {
		mean = r.Latency.Mean()
		p99 = r.Latency.Quantile(0.99)
	}
	return fmt.Sprintf("%-10s thr=%d  %9.1f Kcps  mean=%8s  p99=%8s  cpu=%6.1f%%",
		r.Technique, r.Threads, r.Kcps(), mean.Round(time.Microsecond), p99.Round(time.Microsecond), r.CPUPercent)
}

// Table formats a set of results with a normalised throughput column
// relative to the named baseline technique (matching the paper's "N X"
// annotations).
func Table(results []*Result, baseline string) string {
	var base float64
	for _, r := range results {
		if r.Technique == baseline {
			base = r.Kcps()
		}
	}
	out := fmt.Sprintf("%-10s %8s %12s %10s %12s %12s %10s\n",
		"technique", "threads", "Kcps", "vs "+baseline, "mean lat", "p99 lat", "cpu%")
	for _, r := range results {
		norm := math.NaN()
		if base > 0 {
			norm = r.Kcps() / base
		}
		mean, p99 := time.Duration(0), time.Duration(0)
		if r.Latency != nil {
			mean = r.Latency.Mean()
			p99 = r.Latency.Quantile(0.99)
		}
		out += fmt.Sprintf("%-10s %8d %12.1f %9.2fX %12s %12s %10.1f\n",
			r.Technique, r.Threads, r.Kcps(), norm,
			mean.Round(time.Microsecond), p99.Round(time.Microsecond), r.CPUPercent)
	}
	return out
}

// SortedRoles returns role names ordered for stable printing.
func SortedRoles(byRole map[string]float64) []string {
	names := make([]string, 0, len(byRole))
	for name := range byRole {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

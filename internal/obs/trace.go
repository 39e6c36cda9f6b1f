package obs

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/psmr/psmr/internal/bench"
	"github.com/psmr/psmr/internal/command"
)

// Stage names one pipeline boundary a command crosses on its way from
// client submit to confirmed execution. Stages are stamped in pipeline
// order, but a given deployment only crosses a subset (no proxy tier →
// no StageProxySeal; plain execution → no StageConfirm/StageRollback).
type Stage uint8

// The pipeline-stage boundaries, in pipeline order.
const (
	// StageSubmit is the client-side multicast of the request.
	StageSubmit Stage = iota
	// StageProxySeal is the proxy-proposer sealing the request into a
	// forwarded batch (proxied deployments only).
	StageProxySeal
	// StageLeaderAdmit is the group leader admitting the request into
	// its current proposal batch.
	StageLeaderAdmit
	// StageDecided is consensus reached on the instance carrying the
	// request.
	StageDecided
	// StageLearnerDeliver is the replica's learner appending the
	// request's batch to the ordered log.
	StageLearnerDeliver
	// StageEngineAdmit is the scheduling engine admitting the request
	// into its dependency structure.
	StageEngineAdmit
	// StageExecStart and StageExecEnd bracket the service execution.
	StageExecStart
	StageExecEnd
	// StageConfirm is the optimistic executor order-confirming a
	// speculation (optimistic deployments only).
	StageConfirm
	// StageRollback is the optimistic executor withdrawing the request
	// as rollback collateral (optimistic deployments only).
	StageRollback

	// NumStages is the number of stage boundaries.
	NumStages = int(StageRollback) + 1
)

var stageNames = [NumStages]string{
	"submit", "proxy_seal", "leader_admit", "decided", "learner_deliver",
	"engine_admit", "exec_start", "exec_end", "confirm", "rollback",
}

func (s Stage) String() string {
	if int(s) < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// Stages returns every stage in pipeline order (for iteration in
// exposition code).
func Stages() [NumStages]Stage {
	var out [NumStages]Stage
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// Record is one completed (folded) trace: the request identity plus
// the per-stage timestamps in nanoseconds since the tracer's base
// instant; 0 means the stage was never crossed.
type Record struct {
	Client, Seq uint64
	TS          [NumStages]int64
}

// traceSlot is one way of a bucket of the in-flight table. key is
// the claimed trace's nonzero id hash (0 = free); claim is the claim
// time, used to steal slots abandoned by commands that never reached
// the final stage (lost proposals, ghosts); origin is the local
// instant (ns since base) that maps to the trace's time zero — the
// reference point wire tags ship their durations against (see
// wire.go).
type traceSlot struct {
	key    atomic.Uint64
	claim  atomic.Int64
	origin atomic.Int64
	ts     [NumStages]atomic.Int64
}

const (
	defaultTraceSample = 1024
	defaultTraceSlots  = 1024
	traceRingSize      = 256
	// traceWays is the in-flight table's associativity: a trace may sit
	// in any of the traceWays slots of its bucket, so a stamp is lost
	// only when that many other live traces share the bucket.
	traceWays = 4
	// slotEvictAfter steals a slot whose trace never folded (the
	// command was lost or superseded); generous against any real
	// pipeline latency.
	slotEvictAfter = 5 * time.Second
)

// TracerConfig configures a Tracer.
type TracerConfig struct {
	// Sample traces one in every Sample commands, chosen by a
	// deterministic hash of the request id so every component agrees
	// without coordination. 0 selects the default (1024); 1 traces
	// every command.
	Sample int
	// Final is the stage whose stamp completes a trace and folds it
	// into the histograms (StageExecEnd for plain execution,
	// StageConfirm for optimistic).
	Final Stage
	// Slots sizes the in-flight slot table (rounded up to a power of
	// two, and to at least one bucket of 4 ways). 0 selects the default
	// (1024).
	Slots int
}

// Tracer stamps sampled commands at pipeline-stage boundaries and
// folds completed traces into per-stage latency histograms plus a
// recent-trace ring. All Stamp methods are safe for concurrent use
// from every component, allocation-free, and no-ops on a nil Tracer.
//
// Stamps are first-write-wins per (trace, stage): retransmissions and
// duplicate stamping by peer replicas keep the earliest timestamp, so
// each stage's histogram measures the first time the pipeline crossed
// that boundary for the command.
type Tracer struct {
	sample     uint64
	final      Stage
	base       time.Time
	slots      []traceSlot
	bucketMask uint64 // buckets-1; bucket b holds slots [b*traceWays, (b+1)*traceWays)

	// journal, when attached, receives an EvStage flight-recorder
	// event for every first crossing of a stage by a sampled command.
	journal *Journal

	sampled    atomic.Uint64
	folded     atomic.Uint64
	collisions atomic.Uint64
	evicted    atomic.Uint64
	dropped    atomic.Uint64

	mu        sync.Mutex
	stageHist [NumStages]*bench.Histogram
	totalHist *bench.Histogram
	ring      [traceRingSize]Record
	ringN     uint64
}

// EffectiveSample normalizes a user-facing sample knob to the divisor
// NewTracer applies: <=0 selects the default (1024), 1 keeps every
// command. Lets the journal sample per-command events at the exact
// rate the tracer will use so the two stay in agreement.
func EffectiveSample(sample int) int {
	if sample <= 0 {
		return defaultTraceSample
	}
	return sample
}

// NewTracer creates a tracer. Callers that want tracing off should
// keep a nil *Tracer instead (every method is a no-op on nil).
func NewTracer(cfg TracerConfig) *Tracer {
	sample := cfg.Sample
	if sample <= 0 {
		sample = defaultTraceSample
	}
	slots := cfg.Slots
	if slots <= 0 {
		slots = defaultTraceSlots
	}
	n := traceWays
	for n < slots {
		n <<= 1
	}
	t := &Tracer{
		sample:     uint64(sample),
		final:      cfg.Final,
		base:       time.Now(),
		slots:      make([]traceSlot, n),
		bucketMask: uint64(n/traceWays - 1),
	}
	for i := range t.stageHist {
		t.stageHist[i] = &bench.Histogram{}
	}
	t.totalHist = &bench.Histogram{}
	return t
}

// traceHash mixes a request id into the sampling/placement hash
// (splitmix64-style finalizer, same family as the schedulers' key
// mixers).
func traceHash(client, seq uint64) uint64 {
	x := client*0x9e3779b97f4a7c15 + seq
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

// Stamp records the stage boundary for the request encoded in value
// (any frame or batch item starting with an encoded command.Request).
// Non-request values and non-sampled requests return after the id
// peek. Allocation-free; no-op on nil.
func (t *Tracer) Stamp(stage Stage, value []byte) {
	if t == nil {
		return
	}
	client, seq, ok := command.PeekRequestID(value)
	if !ok {
		return
	}
	t.StampID(stage, client, seq)
}

// StampID records the stage boundary for an already-decoded request
// identity. Allocation-free; no-op on nil.
func (t *Tracer) StampID(stage Stage, client, seq uint64) {
	if t == nil {
		return
	}
	h := traceHash(client, seq)
	if t.sample > 1 && h%t.sample != 0 {
		return
	}
	now := int64(time.Since(t.base))
	s, fresh := t.claimSlot(h|1, now)
	if s == nil {
		if stage == t.final {
			// The trace holds no slot here, so it can never fold.
			t.dropped.Add(1)
		}
		return
	}
	if fresh {
		// This process saw the trace first: its first stamp is the
		// trace's local time zero (what wire tags ship durations
		// against).
		s.origin.Store(now)
	}
	if s.ts[stage].CompareAndSwap(0, now) {
		t.journal.stageEvent(stage, client, seq)
	}
	if stage == t.final {
		t.fold(s, h|1, client, seq)
	}
}

// bucket returns the ways the trace keyed by key may occupy.
func (t *Tracer) bucket(key uint64) []traceSlot {
	b := ((key >> 1) & t.bucketMask) * traceWays
	return t.slots[b : b+traceWays : b+traceWays]
}

// findSlot returns the slot the trace keyed by key holds, or nil.
func (t *Tracer) findSlot(key uint64) *traceSlot {
	ways := t.bucket(key)
	for i := range ways {
		if ways[i].key.Load() == key {
			return &ways[i]
		}
	}
	return nil
}

// claimSlot finds or claims the in-flight slot for the trace keyed by
// key (a nonzero id hash; 0 marks a free slot) among the ways of its
// bucket. fresh reports whether this call claimed (or stole) the slot
// rather than matching an existing claim; nil means every way is held
// by a live different trace and the caller must drop its stamp.
//
// Every claimer takes the lowest free way and rescans after losing a
// race for it, so concurrent first stamps of one trace converge on one
// slot. They can still split only if a lower way is freed between two
// claimers' scans; the stray half then ages out like a lost command.
func (t *Tracer) claimSlot(key uint64, now int64) (s *traceSlot, fresh bool) {
	ways := t.bucket(key)
scan:
	for {
		if s := t.findSlot(key); s != nil {
			return s, false
		}
		for i := range ways {
			s := &ways[i]
			if s.key.Load() != 0 {
				continue
			}
			if !s.key.CompareAndSwap(0, key) {
				continue scan // lost the way: the winner may be this trace
			}
			s.claim.Store(now)
			t.sampled.Add(1)
			return s, true
		}
		// Every way is taken. Steal one whose owner plainly never
		// folded (lost command); otherwise drop this stamp — the
		// collision counter surfaces undersized tables.
		for i := range ways {
			s := &ways[i]
			k := s.key.Load()
			if k == 0 || k == key {
				continue scan // the bucket changed under the scan
			}
			if now-s.claim.Load() <= int64(slotEvictAfter) {
				continue
			}
			if !s.key.CompareAndSwap(k, key) {
				continue scan
			}
			for i := range s.ts {
				s.ts[i].Store(0)
			}
			s.claim.Store(now)
			t.evicted.Add(1)
			return s, true
		}
		t.collisions.Add(1)
		return nil, false
	}
}

// AttachJournal routes an EvStage flight-recorder event to j for every
// first crossing of a stage by a sampled command. Call before the
// tracer is shared; safe to leave unattached (and on a nil tracer).
func (t *Tracer) AttachJournal(j *Journal) {
	if t == nil {
		return
	}
	t.journal = j
}

// fold completes a trace: snapshot the stamps, free the slot for
// reuse, and record the per-stage deltas. Runs at the sampling rate,
// so the mutex is uncontended in any sane configuration.
func (t *Tracer) fold(s *traceSlot, key uint64, client, seq uint64) {
	rec := Record{Client: client, Seq: seq}
	for i := range rec.TS {
		rec.TS[i] = s.ts[i].Load()
	}
	for i := range s.ts {
		s.ts[i].Store(0)
	}
	s.key.CompareAndSwap(key, 0)

	t.mu.Lock()
	prev := int64(0)
	for i := 0; i < NumStages; i++ {
		ts := rec.TS[i]
		if ts == 0 {
			continue
		}
		if prev != 0 && ts >= prev {
			t.stageHist[i].Record(time.Duration(ts - prev))
		}
		prev = ts
	}
	// End-to-end only when the trace saw the client submit; fragment
	// traces (a peer replica re-claiming a folded slot) still feed the
	// per-stage deltas above but would fake a tiny total.
	if first, last := rec.TS[StageSubmit], rec.TS[t.final]; first != 0 && last >= first {
		t.totalHist.Record(time.Duration(last - first))
	}
	t.ring[t.ringN%traceRingSize] = rec
	t.ringN++
	t.mu.Unlock()
	t.folded.Add(1)
}

// StageHistogram returns the latency histogram of one stage boundary
// (time since the previous crossed boundary). Nil on a nil tracer.
func (t *Tracer) StageHistogram(s Stage) *bench.Histogram {
	if t == nil || int(s) >= NumStages {
		return nil
	}
	return t.stageHist[s]
}

// TotalHistogram returns the end-to-end (submit→final) histogram.
func (t *Tracer) TotalHistogram() *bench.Histogram {
	if t == nil {
		return nil
	}
	return t.totalHist
}

// SampleRate returns the configured sampling divisor (1 = every
// command; 0 on a nil tracer).
func (t *Tracer) SampleRate() uint64 {
	if t == nil {
		return 0
	}
	return t.sample
}

// Counts reports how many traces were claimed and folded, how many
// stamps were dropped on slot collision, and how many abandoned slots
// were reclaimed.
func (t *Tracer) Counts() (sampled, folded, collisions, evicted uint64) {
	if t == nil {
		return 0, 0, 0, 0
	}
	return t.sampled.Load(), t.folded.Load(), t.collisions.Load(), t.evicted.Load()
}

// Dropped reports how many traces reached their final stage without a
// slot, so they never fold here. Every trace whose final stage is
// stamped either folds or is dropped (barring a slot stolen after
// slotEvictAfter).
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Recent returns the most recently folded traces, newest last.
func (t *Tracer) Recent() []Record {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.ringN
	count := uint64(traceRingSize)
	if n < count {
		count = n
	}
	out := make([]Record, 0, count)
	for i := n - count; i < n; i++ {
		out = append(out, t.ring[i%traceRingSize])
	}
	return out
}

// Register adds the tracer's histograms and bookkeeping counters to a
// registry under the trace_* namespace.
func (t *Tracer) Register(r *Registry) {
	if t == nil || r == nil {
		return
	}
	for _, s := range Stages() {
		r.Histogram("trace_stage_seconds", `stage="`+s.String()+`"`, t.stageHist[s])
	}
	r.Histogram("trace_total_seconds", "", t.totalHist)
	r.FuncCounter("trace_sampled_total", "", func() uint64 { return t.sampled.Load() })
	r.FuncCounter("trace_folded_total", "", func() uint64 { return t.folded.Load() })
	r.FuncCounter("trace_collisions_total", "", func() uint64 { return t.collisions.Load() })
	r.FuncCounter("trace_evicted_total", "", func() uint64 { return t.evicted.Load() })
	r.FuncCounter("trace_dropped_total", "", func() uint64 { return t.dropped.Load() })
	r.FuncGauge("trace_sample_rate", "", func() float64 { return float64(t.sample) })
}

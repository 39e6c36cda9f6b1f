package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/psmr/psmr"
	"github.com/psmr/psmr/internal/bench"
	"github.com/psmr/psmr/internal/command"
	"github.com/psmr/psmr/internal/kvstore"
	"github.com/psmr/psmr/internal/mvstore"
	"github.com/psmr/psmr/internal/obs"
	"github.com/psmr/psmr/internal/transport"
)

// role is the kind of endpoint a frame is sent to.
type role int

const (
	roleProxy role = iota
	roleCoordinator
	roleAcceptor
	roleRelay
	roleLearner
	roleClient
	roleCheckpoint
	numRoles
)

var roleNames = [numRoles]string{"proxy", "coordinator", "acceptor", "relay", "learner", "client", "checkpoint"}

func (r role) String() string { return roleNames[r] }

// classify maps an endpoint address to the role listening on it, by
// the naming scheme the cluster wiring uses: proxy<i>, g<g>/coord<i>
// (and its …!proto twin), g<g>/acc<i>, g<g>/relay<i>, r<r>/g<g>
// learners, r<r>/ckpt checkpoint servers and client/<id> replies. ok
// is false for any other address.
func classify(addr transport.Addr) (r role, ok bool) {
	s := string(addr)
	if rest, found := strings.CutPrefix(s, "client/"); found && rest != "" {
		return roleClient, true
	}
	if rest, found := strings.CutPrefix(s, "proxy"); found && isNum(rest) {
		return roleProxy, true
	}
	head, tail, found := strings.Cut(s, "/")
	if !found || len(head) < 2 || !isNum(head[1:]) {
		return 0, false
	}
	switch head[0] {
	case 'g':
		if coord, proto := strings.CutSuffix(tail, "!proto"); proto {
			return roleCoordinator, numbered(coord, "coord")
		}
		switch {
		case numbered(tail, "coord"):
			return roleCoordinator, true
		case numbered(tail, "acc"):
			return roleAcceptor, true
		case numbered(tail, "relay"):
			return roleRelay, true
		}
	case 'r':
		switch {
		case numbered(tail, "g"):
			return roleLearner, true
		case tail == "ckpt" || tail == "ckpt-fetch":
			return roleCheckpoint, true
		}
	}
	return 0, false
}

func numbered(s, prefix string) bool {
	rest, ok := strings.CutPrefix(s, prefix)
	return ok && isNum(rest)
}

func isNum(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

// ledgerTransport wraps the cluster's transport: it counts the frames
// and bytes sent to each role and the time spent in Send, and records
// every address listened on.
type ledgerTransport struct {
	inner         transport.Transport
	frames, bytes [numRoles]atomic.Int64
	unknown       atomic.Int64 // frames to addresses classify does not know
	sends         atomic.Int64
	sendNs        atomic.Int64

	mu       sync.Mutex
	listened []transport.Addr
}

func (t *ledgerTransport) Listen(addr transport.Addr) (transport.Endpoint, error) {
	t.mu.Lock()
	t.listened = append(t.listened, addr)
	t.mu.Unlock()
	return t.inner.Listen(addr)
}

func (t *ledgerTransport) Send(to transport.Addr, frame []byte) error {
	start := time.Now()
	err := t.inner.Send(to, frame)
	t.sendNs.Add(int64(time.Since(start)))
	t.sends.Add(1)
	if r, ok := classify(to); ok {
		t.frames[r].Add(1)
		t.bytes[r].Add(int64(len(frame)))
	} else {
		t.unknown.Add(1)
	}
	return err
}

func (t *ledgerTransport) Close() error { return t.inner.Close() }

// Listened returns every address listened on so far.
func (t *ledgerTransport) Listened() []transport.Addr {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]transport.Addr(nil), t.listened...)
}

// timedStore times every execution of the store it embeds. Commit,
// Abort, Uncommitted, Snapshot and Restore are the embedded store's,
// so the engines see the same command.Versioned and
// command.Snapshotter service and take the same paths.
type timedStore struct {
	*kvstore.Store
	hist *nsHist
}

func (s timedStore) Execute(cmd command.ID, input []byte) []byte {
	start := time.Now()
	out := s.Store.Execute(cmd, input)
	s.hist.record(time.Since(start))
	return out
}

func (s timedStore) SpeculateAt(e mvstore.Epoch, cmd command.ID, input []byte) []byte {
	start := time.Now()
	out := s.Store.SpeculateAt(e, cmd, input)
	s.hist.record(time.Since(start))
	return out
}

var _ command.Versioned = timedStore{}
var _ command.Snapshotter = timedStore{}

// span is one timed interval of the benchmark's own code around a call
// into a layer. Spans of one request share ID; Parent names the span
// that contains it.
type span struct {
	ID     uint64 `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// callTiming is one request as the load generator saw it: due is when
// it should have been sent (the submit instant in the closed loop).
type callTiming struct {
	due, submitted, sent, waiting, answered time.Time
	open                                    bool
}

// selfTime accumulates a nesting span's self time: its duration minus
// the time its child spans cover.
type selfTime struct {
	Name    string `json:"name"`
	Count   int64  `json:"count"`
	TotalNs int64  `json:"self_ns"`
}

// spanEvery keeps the spans of one request in this many; the
// aggregates cover every request.
const spanEvery = 64

// retryInterval is the shipped client retransmission interval
// (psmr.Config.RetryInterval's default): a Wait that lasted n of these
// retransmitted n times.
const retryInterval = 3 * time.Second

// ledger is the traced run's per-layer bookkeeping.
type ledger struct {
	base time.Time
	net  *ledgerTransport
	cpu  *bench.CPUMeter
	exec nsHist

	mu          sync.Mutex
	submitUs    []float64 // open-loop phase
	waitUs      []float64 // open-loop phase
	retransmits int64
	requests    int64
	self        [3]selfTime // request, core.submit, core.wait
	spans       []span
}

// newLedger returns a ledger; startCluster sets its transport wrapper
// around the cluster's network.
func newLedger() *ledger {
	return &ledger{
		base: time.Now(),
		cpu:  bench.NewCPUMeter(),
		self: [3]selfTime{{Name: "request"}, {Name: "core.submit"}, {Name: "core.wait"}},
	}
}

// record adds one answered request. It is a no-op on a nil ledger, so
// the untraced load generator calls it unconditionally.
func (l *ledger) record(t callTiming) {
	if l == nil {
		return
	}
	submit := t.sent.Sub(t.submitted)
	wait := t.answered.Sub(t.waiting)
	total := t.answered.Sub(t.due)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.requests++
	l.retransmits += int64(wait / retryInterval)
	if t.open {
		l.submitUs = append(l.submitUs, float64(submit)/1e3)
		l.waitUs = append(l.waitUs, float64(wait)/1e3)
	}
	for i, d := range [3]time.Duration{total - submit - wait, submit, wait} {
		l.self[i].Count++
		l.self[i].TotalNs += int64(d)
	}
	if l.requests%spanEvery != 0 {
		return
	}
	id := uint64(l.requests)
	ns := func(at time.Time) int64 { return int64(at.Sub(l.base)) }
	l.spans = append(l.spans,
		span{ID: id, Name: "request", Start: ns(t.due), End: ns(t.answered)},
		span{ID: id, Name: "core.submit", Parent: "request", Start: ns(t.submitted), End: ns(t.sent)},
		span{ID: id, Name: "core.wait", Parent: "request", Start: ns(t.waiting), End: ns(t.answered)},
	)
}

// layerSnap is one reading of every counter the per-layer metrics are
// deltas of.
type layerSnap struct {
	cpu           map[string]time.Duration
	frames, bytes [numRoles]int64
	reg           map[string]float64
	execs         int64
	rt            rtSnapshot
}

func (l *ledger) snap(cl *psmr.Cluster) layerSnap {
	s := layerSnap{reg: map[string]float64{}, execs: l.exec.count.Load(), rt: readRuntime()}
	s.cpu, _ = l.cpu.Snapshot()
	for r := range s.frames {
		s.frames[r] = l.net.frames[r].Load()
		s.bytes[r] = l.net.bytes[r].Load()
	}
	for _, m := range cl.Metrics() {
		if m.Kind != obs.KindHistogram {
			s.reg[m.Name] += m.Value
		}
	}
	return s
}

// layerInputs is what the traced run measured besides the ledger.
type layerInputs struct {
	mode                  psmr.Mode
	committed             int64     // closed-loop commands
	before, after         layerSnap // around the closed-loop window
	rtEnd                 rtSnapshot
	open                  openStats
	tracer                *obs.Tracer
	tracedKcps, plainKcps float64
}

// metrics computes the per-layer metrics. Cost ratios are per
// closed-loop command; the submit/wait percentiles come from the
// open-loop phase, where end-to-end latency is measured.
func (l *ledger) metrics(in layerInputs) []metricValue {
	cmds := float64(in.committed)
	delta := func(name string) float64 { return in.after.reg[name] - in.before.reg[name] }
	cpuPerCmd := func(r string) float64 {
		return float64(in.after.cpu[r]-in.before.cpu[r]) / cmds
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	l.mu.Lock()
	sub := percentiles(l.submitUs, 0.5, 0.99)
	wait := percentiles(l.waitUs, 0.5, 0.99)
	retransmits, requests := l.retransmits, l.requests
	l.mu.Unlock()

	var out []metricValue
	add := func(name, unit string, v float64, n int) {
		out = append(out, metricValue{Name: name, Unit: unit, Value: v, N: n})
	}
	add("core.submit_us.p50", "us", sub[0].Value, sub[0].N)
	add("core.submit_us.p99", "us", sub[1].Value, sub[1].N)
	add("core.wait_us.p50", "us", wait[0].Value, wait[0].N)
	add("core.wait_us.p99", "us", wait[1].Value, wait[1].N)
	add("core.retransmits_per_kcmd", "1/kcmd", 1e3*ratio(float64(retransmits), float64(requests)), int(requests))
	// Checkpoint servers are not reported: no workload checkpoints.
	reported := []role{roleProxy, roleCoordinator, roleAcceptor, roleRelay, roleLearner, roleClient}
	for _, r := range reported {
		add("transport.frames_per_cmd."+r.String(), "frames/cmd", float64(in.after.frames[r]-in.before.frames[r])/cmds, 0)
	}
	for _, r := range reported {
		add("transport.bytes_per_cmd."+r.String(), "B/cmd", float64(in.after.bytes[r]-in.before.bytes[r])/cmds, 0)
	}
	add("paxos.cmds_per_instance", "cmd/instance",
		ratio(delta("ordering_leader_inbound_commands_total"), delta("ordering_decided_total")), 0)
	add("paxos.leader_frames_per_cmd", "frames/cmd",
		ratio(delta("ordering_leader_inbound_frames_total"), delta("ordering_leader_inbound_commands_total")), 0)
	add("paxos.coordinator.cpu_ns_per_cmd", "ns/cmd", cpuPerCmd("coordinator"), 0)
	add("paxos.acceptor.cpu_ns_per_cmd", "ns/cmd", cpuPerCmd("acceptor"), 0)
	add("paxos.learner.cpu_ns_per_cmd", "ns/cmd", cpuPerCmd("learner"), 0)
	add("proxy.cmds_per_batch", "cmd/batch", ratio(delta("proxy_commands_total"), delta("proxy_batches_total")), 0)
	add("proxy.shed_ratio", "ratio", ratio(delta("proxy_shed_total"), delta("proxy_queued_total")), 0)
	add("proxy.cpu_ns_per_cmd", "ns/cmd", cpuPerCmd("proxy"), 0)
	// The sP-SMR engines and the core replica of P-SMR and classic SMR
	// all meter their execution threads as "worker"; the mode says
	// whose they are.
	schedWorker, coreWorker := cpuPerCmd("worker"), 0.0
	if in.mode == psmr.ModePSMR || in.mode == psmr.ModeSMR {
		schedWorker, coreWorker = 0, schedWorker
	}
	add("sched.scheduler.cpu_ns_per_cmd", "ns/cmd", cpuPerCmd("scheduler"), 0)
	add("sched.worker.cpu_ns_per_cmd", "ns/cmd", schedWorker, 0)
	add("sched.stolen_per_kcmd", "1/kcmd", 1e3*delta("sched_stolen_total")/cmds, 0)
	add("core.worker.cpu_ns_per_cmd", "ns/cmd", coreWorker, 0)
	p50, p99 := l.exec.quantile(0.5), l.exec.quantile(0.99)
	add("kvstore.execute_ns.p50", "ns", p50.Value, p50.N)
	add("kvstore.execute_ns.p99", "ns", p99.Value, p99.N)
	add("kvstore.executions_per_cmd", "exec/cmd", float64(in.after.execs-in.before.execs)/cmds, 0)
	hits, misses := delta("optimistic_hits_total"), delta("optimistic_misses_total")
	add("optimistic.hit_ratio", "ratio", ratio(hits, hits+misses), int(hits+misses))
	add("optimistic.rollbacks_per_kcmd", "1/kcmd", 1e3*delta("optimistic_rollbacks_total")/cmds, 0)
	for _, st := range obs.Stages() {
		if st == obs.StageSubmit {
			continue // it opens a trace: no wait before it to fold
		}
		h := in.tracer.StageHistogram(st)
		n := int(h.Count())
		add("obs.stage."+st.String()+".p50_us", "us", float64(h.Quantile(0.5))/1e3, n)
		add("obs.stage."+st.String()+".p99_us", "us", float64(h.Quantile(0.99))/1e3, n)
	}
	sampled, folded, _, _ := in.tracer.Counts()
	add("obs.trace_folded_ratio", "ratio", ratio(float64(folded), float64(sampled)), int(sampled))
	gcCycles := float64(in.after.rt.gcCycles - in.before.rt.gcCycles)
	add("runtime.gc_cycles_per_kcmd", "1/kcmd", 1e3*gcCycles/cmds, int(gcCycles))
	// Pauses and scheduling latency over both measured phases.
	pause := histQuantile(in.before.rt.gcPauses, in.rtEnd.gcPauses, 0.99)
	add("runtime.gc_pause_p99_us", "us", pause.Value*1e6, pause.N)
	lat := histQuantile(in.before.rt.schedLatency, in.rtEnd.schedLatency, 0.99)
	add("runtime.sched_latency_p99_us", "us", lat.Value*1e6, lat.N)
	add("loadgen.late_p99_ms", "ms", in.open.lateP99.Value, in.open.lateP99.N)
	add("loadgen.latency_samples", "count", float64(in.open.p50.N), in.open.p50.N)
	add("bench.trace_overhead_ratio", "ratio", ratio(in.plainKcps, in.tracedKcps), 0)
	return out
}

// aggregate is a non-nesting call site's total time and call count.
type aggregate struct {
	Name    string `json:"name"`
	Count   int64  `json:"count"`
	TotalNs int64  `json:"total_ns"`
}

// notes renders the self times and aggregates for the human-readable
// output.
func (l *ledger) notes() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := []string{"self time (nesting spans; request = due-to-answer minus submit and wait):"}
	for _, s := range l.self {
		out = append(out, fmt.Sprintf("  %-16s n=%-9d total %10.3f s  mean %9.3f us", s.Name, s.Count,
			float64(s.TotalNs)/1e9, float64(s.TotalNs)/1e3/float64(max(s.Count, 1))))
	}
	out = append(out, "aggregate time (non-nesting call sites):")
	for _, a := range l.aggregates() {
		out = append(out, fmt.Sprintf("  %-16s n=%-9d total %10.3f s  mean %9.3f us", a.Name, a.Count,
			float64(a.TotalNs)/1e9, float64(a.TotalNs)/1e3/float64(max(a.Count, 1))))
	}
	if n := l.net.unknown.Load(); n > 0 {
		out = append(out, fmt.Sprintf("WARNING: %d frames went to addresses no role is known for", n))
	}
	return out
}

func (l *ledger) aggregates() []aggregate {
	return []aggregate{
		{Name: "transport.send", Count: l.net.sends.Load(), TotalNs: l.net.sendNs.Load()},
		{Name: "kvstore.execute", Count: l.exec.count.Load(), TotalNs: l.exec.sum.Load()},
	}
}

// write stores the ledger at path: a header line with the stamp, the
// self times of the nesting spans and the aggregates of the
// non-nesting ones, then one kept span per line.
func (l *ledger) write(path string, st stamp) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("create ledger directory: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create ledger: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	header := struct {
		Stamp     stamp       `json:"stamp"`
		SelfTime  []selfTime  `json:"self_time"`
		Aggregate []aggregate `json:"aggregate"`
		SpanEvery int         `json:"span_every"`
	}{
		Stamp:     st,
		SelfTime:  l.self[:],
		Aggregate: l.aggregates(),
		SpanEvery: spanEvery,
	}
	err = enc.Encode(header)
	for i := 0; err == nil && i < len(l.spans); i++ {
		err = enc.Encode(l.spans[i])
	}
	l.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write ledger %s: %w", path, err)
	}
	return nil
}

package obs

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/psmr/psmr/internal/bench"
	"github.com/psmr/psmr/internal/command"
)

func TestRegistryCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", `tier="proxy"`)
	c.Add(3)
	c.Inc()
	g := r.Gauge("depth", "")
	g.Set(-7)
	r.FuncCounter("live_total", "", func() uint64 { return 42 })
	r.FuncGauge("live_gauge", "", func() float64 { return 1.5 })

	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot size = %d, want 4", len(snap))
	}
	// Sorted by name: depth, live_gauge, live_total, requests_total.
	for i, want := range []string{"depth", "live_gauge", "live_total", "requests_total"} {
		if snap[i].Name != want {
			t.Fatalf("snap[%d].Name = %q, want %q", i, snap[i].Name, want)
		}
	}
	flat := r.Flatten()
	if flat[`requests_total{tier="proxy"}`] != 4 {
		t.Fatalf("counter = %v, want 4", flat[`requests_total{tier="proxy"}`])
	}
	if flat["depth"] != -7 || flat["live_total"] != 42 || flat["live_gauge"] != 1.5 {
		t.Fatalf("flatten = %v", flat)
	}
}

func TestRegistryHistogramSummary(t *testing.T) {
	r := NewRegistry()
	var h bench.Histogram
	h.Record(time.Millisecond)
	h.Record(3 * time.Millisecond)
	r.Histogram("lat_seconds", `stage="exec"`, &h)

	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Kind != KindHistogram {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap[0].Count != 2 || snap[0].MeanUs != 2000 {
		t.Fatalf("count=%d mean=%v, want 2/2000", snap[0].Count, snap[0].MeanUs)
	}
	flat := r.Flatten()
	if flat[`lat_seconds{stage="exec"}_count`] != 2 {
		t.Fatalf("flatten = %v", flat)
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c", "")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := c.Load(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
}

func TestRegistryNilSafe(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	c.Inc() // registration dropped, counter still usable
	r.FuncCounter("y", "", func() uint64 { return 1 })
	if r.Snapshot() != nil || r.Flatten() != nil {
		t.Fatal("nil registry snapshot not empty")
	}
	var sb strings.Builder
	r.WritePrometheus(&sb)
	if sb.Len() != 0 {
		t.Fatalf("nil registry wrote %q", sb.String())
	}
	var nilC *Counter
	nilC.Add(1)
	var nilG *Gauge
	nilG.Set(1)
	if nilC.Load() != 0 || nilG.Load() != 0 {
		t.Fatal("nil instruments not zero")
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs_total", `proxy="0"`).Add(5)
	var h bench.Histogram
	h.Record(2 * time.Millisecond)
	r.Histogram("lat_seconds", "", &h)

	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE reqs_total counter",
		`reqs_total{proxy="0"} 5`,
		"# TYPE lat_seconds summary",
		`lat_seconds{quantile="0.5"}`,
		"lat_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

// stampAll walks one request through the plain-execution pipeline.
func stampAll(tr *Tracer, client, seq uint64) {
	for _, st := range []Stage{StageSubmit, StageLeaderAdmit, StageDecided,
		StageLearnerDeliver, StageEngineAdmit, StageExecStart, StageExecEnd} {
		tr.StampID(st, client, seq)
	}
}

func TestTracerFoldsEveryCommand(t *testing.T) {
	tr := NewTracer(TracerConfig{Sample: 1, Final: StageExecEnd})
	const n = 100
	for i := uint64(0); i < n; i++ {
		stampAll(tr, 1, i)
	}
	sampled, folded, collisions, _ := tr.Counts()
	if sampled != n || folded != n {
		t.Fatalf("sampled=%d folded=%d, want %d/%d", sampled, folded, n, n)
	}
	if collisions != 0 {
		t.Fatalf("collisions = %d", collisions)
	}
	if got := tr.TotalHistogram().Count(); got != n {
		t.Fatalf("total count = %d, want %d", got, n)
	}
	// Every stage after submit records one delta per trace.
	for _, st := range []Stage{StageLeaderAdmit, StageDecided, StageExecEnd} {
		if got := tr.StageHistogram(st).Count(); got != n {
			t.Fatalf("stage %v count = %d, want %d", st, got, n)
		}
	}
	// Skipped stages stay empty.
	if got := tr.StageHistogram(StageProxySeal).Count(); got != 0 {
		t.Fatalf("proxy_seal count = %d, want 0", got)
	}
	if recent := tr.Recent(); len(recent) != n {
		t.Fatalf("recent = %d records, want %d", len(recent), n)
	}
}

func TestTracerSamplingDeterministic(t *testing.T) {
	tr := NewTracer(TracerConfig{Sample: 64, Final: StageExecEnd})
	const n = 64 * 256
	for i := uint64(0); i < n; i++ {
		stampAll(tr, 7, i)
	}
	sampled, folded, _, _ := tr.Counts()
	if sampled == 0 {
		t.Fatal("nothing sampled")
	}
	// Hash-based selection: expect ~n/64 with generous slack.
	if sampled < n/64/4 || sampled > n/64*4 {
		t.Fatalf("sampled = %d, want ≈ %d", sampled, n/64)
	}
	if folded != sampled {
		t.Fatalf("folded=%d != sampled=%d", folded, sampled)
	}
	// Determinism: a second identical pass selects the same commands.
	for i := uint64(0); i < n; i++ {
		stampAll(tr, 7, i)
	}
	sampled2, _, _, _ := tr.Counts()
	if sampled2 != 2*sampled {
		t.Fatalf("second pass sampled %d, want %d", sampled2-sampled, sampled)
	}
}

func TestTracerCollisionDrops(t *testing.T) {
	tr := NewTracer(TracerConfig{Sample: 1, Final: StageExecEnd, Slots: 1})
	// Claim the only slot but never reach the final stage...
	tr.StampID(StageSubmit, 1, 1)
	// ...then stamp different commands: they must drop, not corrupt.
	for i := uint64(2); i < 10; i++ {
		tr.StampID(StageSubmit, 1, i)
	}
	_, _, collisions, _ := tr.Counts()
	if collisions == 0 {
		t.Fatal("expected slot collisions")
	}
	// The parked trace still folds once its final stage lands.
	tr.StampID(StageExecEnd, 1, 1)
	if _, folded, _, _ := tr.Counts(); folded != 1 {
		t.Fatalf("folded = %d, want 1", folded)
	}
}

func TestTracerStampPeeksEncodedRequest(t *testing.T) {
	tr := NewTracer(TracerConfig{Sample: 1, Final: StageExecEnd})
	buf := command.AppendRequest(nil, &command.Request{
		Client: 9, Seq: 4, Cmd: 1, Input: []byte("abc"), Reply: "cl/9",
	})
	tr.Stamp(StageSubmit, buf)
	tr.Stamp(StageExecEnd, buf)
	if _, folded, _, _ := tr.Counts(); folded != 1 {
		t.Fatalf("folded = %d, want 1", folded)
	}
	tr.Stamp(StageSubmit, []byte("short")) // non-request: ignored
}

func TestTracerConcurrentStamping(t *testing.T) {
	tr := NewTracer(TracerConfig{Sample: 1, Final: StageExecEnd})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := uint64(0); i < 500; i++ {
				stampAll(tr, uint64(w+1), i)
			}
		}(w)
	}
	wg.Wait()
	_, folded, _, _ := tr.Counts()
	if folded != 8*500 {
		t.Fatalf("folded = %d, want %d", folded, 8*500)
	}
}

// TestTracerConcurrentStampingTinyTable is the collision-heavy variant
// of TestTracerConcurrentStamping: one bucket of ways shared by many
// concurrent traces, so stamps do collide. The accounting must still
// be exact — every trace either folds or is counted dropped.
func TestTracerConcurrentStampingTinyTable(t *testing.T) {
	tr := NewTracer(TracerConfig{Sample: 1, Final: StageExecEnd, Slots: 1})
	const goroutines, perG = 16, 500
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := uint64(0); i < perG; i++ {
				tr.StampID(StageSubmit, uint64(w+1), i)
				runtime.Gosched() // keep several traces live at once
				stampAll(tr, uint64(w+1), i)
			}
		}(w)
	}
	wg.Wait()
	_, folded, collisions, _ := tr.Counts()
	dropped := tr.Dropped()
	t.Logf("folded %d, dropped %d, stamp collisions %d", folded, dropped, collisions)
	if folded+dropped != goroutines*perG {
		t.Fatalf("folded %d + dropped %d = %d, want %d (collisions %d)",
			folded, dropped, folded+dropped, goroutines*perG, collisions)
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.StampID(StageSubmit, 1, 1)
	tr.Stamp(StageSubmit, nil)
	if tr.StageHistogram(StageSubmit) != nil || tr.TotalHistogram() != nil {
		t.Fatal("nil tracer histograms not nil")
	}
	if tr.SampleRate() != 0 || tr.Recent() != nil || tr.StageBreakdown() != "" {
		t.Fatal("nil tracer accessors not empty")
	}
	s, f, c, e := tr.Counts()
	if s|f|c|e != 0 {
		t.Fatal("nil tracer counts not zero")
	}
	tr.Register(NewRegistry()) // no-op
}

func TestStageBreakdownAndRegister(t *testing.T) {
	tr := NewTracer(TracerConfig{Sample: 1, Final: StageExecEnd})
	if tr.StageBreakdown() != "" {
		t.Fatal("breakdown not empty before any fold")
	}
	stampAll(tr, 3, 1)
	table := tr.StageBreakdown()
	for _, want := range []string{"leader_admit", "exec_end", "total"} {
		if !strings.Contains(table, want) {
			t.Fatalf("breakdown missing %q:\n%s", want, table)
		}
	}
	r := NewRegistry()
	tr.Register(r)
	flat := r.Flatten()
	if flat["trace_folded_total"] != 1 || flat["trace_sample_rate"] != 1 {
		t.Fatalf("registered trace metrics = %v", flat)
	}
	if flat[`trace_stage_seconds{stage="decided"}_count`] != 1 {
		t.Fatalf("stage histogram not registered: %v", flat)
	}
}

func TestStageStringAndKinds(t *testing.T) {
	if StageSubmit.String() != "submit" || StageRollback.String() != "rollback" {
		t.Fatal("stage names")
	}
	if Stage(200).String() != "unknown" {
		t.Fatal("out-of-range stage name")
	}
	if KindCounter.String() != "counter" || KindHistogram.String() != "histogram" {
		t.Fatal("kind names")
	}
}

package psmr_test

// End-to-end observability tests: pipeline-stage tracing through a
// live cluster, the unified metrics registry, the per-tier counter
// snapshot semantics, and the relay-staleness watchdog.

import (
	"strings"
	"sync"
	"testing"
	"time"

	psmr "github.com/psmr/psmr"
	"github.com/psmr/psmr/internal/command"
	"github.com/psmr/psmr/internal/kvstore"
	"github.com/psmr/psmr/internal/obs"
)

// TestTracingStageHistogramsE2E traces every command (TraceSample=1)
// through an sP-SMR deployment and checks that the per-stage latency
// histograms cover the whole pipeline, that the registry snapshot and
// the Prometheus text exposition carry them, and that the breakdown
// table renders.
func TestTracingStageHistogramsE2E(t *testing.T) {
	cl, _ := startCluster(t, psmr.Config{
		Mode:        psmr.ModeSPSMR,
		Workers:     2,
		Scheduler:   psmr.SchedIndex,
		TraceSample: 1,
	})
	h := mustClient(t, cl)
	for i := uint64(0); i < 64; i++ {
		h.invoke(cmdWrite, writeInput(i%8, i))
	}

	tr := cl.Tracer()
	if tr == nil {
		t.Fatal("tracer nil with TraceSample=1")
	}
	if _, folded, _, _ := tr.Counts(); folded == 0 {
		t.Fatal("no traces folded")
	}
	for _, st := range []obs.Stage{obs.StageSubmit, obs.StageLeaderAdmit,
		obs.StageDecided, obs.StageLearnerDeliver, obs.StageEngineAdmit,
		obs.StageExecStart, obs.StageExecEnd} {
		if st == obs.StageSubmit {
			continue // submit is the base stamp: it has no predecessor delta
		}
		if tr.StageHistogram(st).Count() == 0 {
			t.Errorf("stage %v never recorded", st)
		}
	}
	if tr.TotalHistogram().Count() == 0 {
		t.Fatal("no end-to-end latencies")
	}
	if !strings.Contains(tr.StageBreakdown(), "total") {
		t.Fatalf("breakdown missing total row:\n%s", tr.StageBreakdown())
	}

	flat := cl.Registry().Flatten()
	if flat["trace_folded_total"] == 0 {
		t.Fatalf("registry missing trace fold count: %v", flat["trace_folded_total"])
	}
	if flat["ordering_decided_total"] == 0 {
		t.Fatal("registry missing decided count")
	}
	var sb strings.Builder
	cl.Registry().WritePrometheus(&sb)
	for _, want := range []string{"trace_stage_seconds", "trace_total_seconds", "ordering_decided_total"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("prometheus exposition missing %q", want)
		}
	}
}

// TestTracingDisabled checks TraceSample=-1 builds no tracer and the
// cluster still serves commands and metrics.
func TestTracingDisabled(t *testing.T) {
	cl, _ := startCluster(t, psmr.Config{
		Mode:        psmr.ModeSPSMR,
		Workers:     2,
		TraceSample: -1,
	})
	h := mustClient(t, cl)
	h.invoke(cmdWrite, writeInput(1, 2))
	if cl.Tracer() != nil {
		t.Fatal("tracer built with TraceSample=-1")
	}
	flat := cl.Registry().Flatten()
	if _, ok := flat["trace_folded_total"]; ok {
		t.Fatal("trace metrics registered with tracing off")
	}
	if flat["ordering_decided_total"] == 0 {
		t.Fatal("registry lost the ordering counters")
	}
}

// TestOrderingCountersSnapshotSemantics checks the OrderingCounters
// surface: zero-valued with the proxy tier off, race-free and
// monotonically non-decreasing when snapshotted concurrently with
// load.
func TestOrderingCountersSnapshotSemantics(t *testing.T) {
	t.Run("ZeroWhenOff", func(t *testing.T) {
		cl, _ := startCluster(t, psmr.Config{Mode: psmr.ModeSPSMR, Workers: 2})
		h := mustClient(t, cl)
		h.invoke(cmdWrite, writeInput(1, 1))
		oc := cl.OrderingCounters()
		if len(oc.Proxies) != 0 {
			t.Fatalf("proxy counters with no proxy tier: %+v", oc.Proxies)
		}
		if oc.Leader.InboundCommands == 0 {
			t.Fatal("leader admitted nothing")
		}
	})
	t.Run("MonotonicUnderLoad", func(t *testing.T) {
		cl, _ := startCluster(t, psmr.Config{
			Mode:    psmr.ModeSPSMR,
			Workers: 2,
			Proxies: 2,
		})
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < 3; w++ {
			h := mustClient(t, cl)
			wg.Add(1)
			go func(h *clientHandle, w int) {
				defer wg.Done()
				for i := uint64(0); ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					h.invoke(cmdWrite, writeInput(uint64(w)*8+i%8, i))
				}
			}(h, w)
		}
		var prev psmr.OrderingCounters
		for i := 0; i < 200; i++ {
			time.Sleep(time.Millisecond)
			oc := cl.OrderingCounters()
			if oc.Leader.InboundFrames < prev.Leader.InboundFrames ||
				oc.Leader.InboundCommands < prev.Leader.InboundCommands {
				t.Errorf("leader counters regressed: %+v -> %+v", prev.Leader, oc.Leader)
				break
			}
			var cmds, prevCmds uint64
			for _, p := range oc.Proxies {
				cmds += p.Commands
			}
			for _, p := range prev.Proxies {
				prevCmds += p.Commands
			}
			if cmds < prevCmds {
				t.Errorf("proxy commands regressed: %d -> %d", prevCmds, cmds)
				break
			}
			prev = oc
		}
		close(stop)
		wg.Wait()
		if prev.Leader.InboundCommands == 0 {
			t.Fatal("no load observed")
		}
	})
}

// TestTierCountersZeroWhenOff checks the speculation and checkpoint
// snapshots read zero-valued (not panic, not garbage) on deployments
// that never enabled those tiers.
func TestTierCountersZeroWhenOff(t *testing.T) {
	cl, _ := startCluster(t, psmr.Config{Mode: psmr.ModeSPSMR, Workers: 2})
	h := mustClient(t, cl)
	h.invoke(cmdWrite, writeInput(1, 1))
	if oc := cl.OptimisticCounters(); len(oc) != 0 {
		t.Fatalf("optimistic counters on a non-optimistic cluster: %+v", oc)
	}
	for i, c := range cl.CheckpointCounters() {
		if c != (psmr.CheckpointCounters{}) {
			t.Fatalf("replica %d checkpoint counters non-zero with checkpointing off: %+v", i, c)
		}
	}
}

// TestRelayStalenessWatchdog kills the only decision relay of a
// fanned-out deployment and checks the watchdog flags it: the group
// keeps deciding (client retransmissions re-propose), the relay's
// forward counter stands still, and ordering_relay_silent increments
// exactly one transition.
func TestRelayStalenessWatchdog(t *testing.T) {
	cl, _ := startCluster(t, psmr.Config{
		Mode:             psmr.ModeSPSMR,
		Workers:          2,
		FanoutDegree:     1,
		RelaySilentAfter: 100 * time.Millisecond,
		RetryInterval:    100 * time.Millisecond,
	})
	h := mustClient(t, cl)
	h.invoke(cmdWrite, writeInput(1, 10))
	if got := cl.Registry().Flatten()[`ordering_relay_forwarded_total{group="0",relay="0"}`]; got == 0 {
		t.Fatal("relay forwarded nothing while alive")
	}
	if got := cl.RelaySilent(); got != 0 {
		t.Fatalf("silent transitions before the crash: %d", got)
	}

	cl.CrashRelay(0, 0)
	// With the single stripe dead nothing reaches the learners, so this
	// invoke can never complete — its retransmissions are the load that
	// keeps the group deciding while the relay stays silent. The client
	// is torn down by cluster cleanup, failing the pending call.
	driver, err := cl.NewClient()
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	t.Cleanup(func() { _ = driver.Close() })
	go func() { _, _ = driver.Invoke(cmdWrite, writeInput(2, 20)) }()

	deadline := time.Now().Add(10 * time.Second)
	for cl.RelaySilent() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("watchdog never flagged the dead relay")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The idle-age gauge reads stale: no forward for > RelaySilentAfter.
	if idle := cl.Registry().Flatten()[`ordering_relay_idle_seconds{group="0",relay="0"}`]; idle < 0.1 {
		t.Fatalf("idle gauge = %.3fs, want > 0.1s", idle)
	}
	// One transition, not one increment per tick.
	time.Sleep(300 * time.Millisecond)
	if got := cl.RelaySilent(); got != 1 {
		t.Fatalf("silent transitions = %d, want 1", got)
	}
}

// TestClusterMetricsSnapshot sanity-checks the unified Metrics()
// surface: sorted samples, the CPU-role gauges present when a meter is
// attached, and sched steal counters registered on the index engine.
func TestClusterMetricsSnapshot(t *testing.T) {
	cl, _ := startCluster(t, psmr.Config{
		Mode:      psmr.ModeSPSMR,
		Workers:   2,
		Scheduler: psmr.SchedIndex,
	})
	h := mustClient(t, cl)
	for i := uint64(0); i < 16; i++ {
		h.invoke(cmdWrite, writeInput(i%4, i))
	}
	samples := cl.Metrics()
	if len(samples) == 0 {
		t.Fatal("empty metrics snapshot")
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].Name < samples[i-1].Name {
			t.Fatalf("snapshot unsorted: %q after %q", samples[i].Name, samples[i-1].Name)
		}
	}
	flat := cl.Registry().Flatten()
	if _, ok := flat["sched_stolen_total"]; !ok {
		t.Fatal("sched steal counter not registered")
	}
	if flat["ordering_leader_inbound_commands_total"] == 0 {
		t.Fatal("leader inbound counter empty")
	}
}

// TestClusterMetricsCheckpointOptimistic checks that the checkpoint and
// speculation statistics the benchmark harness prints are registry
// names: a checkpointed cluster exports the worst-replica pause and
// snapshot size, an optimistic one the rollback depth and ghost
// evictions, and neither appears on a cluster with the feature off.
func TestClusterMetricsCheckpointOptimistic(t *testing.T) {
	ckptNames := []string{"checkpoint_snapshots_total", "checkpoint_pause_ns_total",
		"checkpoint_pause_max_ns", "checkpoint_snapshot_bytes"}
	optNames := []string{"optimistic_hits_total", "optimistic_misses_total",
		"optimistic_rollbacks_total", "optimistic_rolled_back_total",
		"optimistic_rollback_depth_max", "optimistic_ghost_evictions_total"}
	for _, v := range []struct {
		name       string
		checkpoint bool
		optimistic bool
	}{
		{name: "checkpoint", checkpoint: true},
		{name: "optimistic", optimistic: true},
	} {
		t.Run(v.name, func(t *testing.T) {
			cfg := psmr.Config{
				Mode:       psmr.ModeSPSMR,
				Workers:    2,
				Scheduler:  psmr.SchedIndex,
				Optimistic: v.optimistic,
				Spec:       kvstore.Spec(),
				NewService: func() command.Service {
					st := kvstore.New()
					st.Preload(64)
					return st
				},
			}
			if v.checkpoint {
				cfg.Checkpoint = psmr.CheckpointConfig{Interval: 8}
			}
			cl, err := psmr.StartCluster(cfg)
			if err != nil {
				t.Fatalf("StartCluster: %v", err)
			}
			t.Cleanup(func() { _ = cl.Close() })
			h := mustClient(t, cl)
			for i := uint64(0); i < 32; i++ {
				h.invoke(kvstore.CmdUpdate, kvstore.EncodeKeyValue(i%16, []byte("v")))
			}
			flat := cl.Registry().Flatten()
			want, absent := ckptNames, optNames
			if v.optimistic {
				want, absent = optNames, ckptNames
			}
			for _, name := range want {
				if _, ok := flat[name]; !ok {
					t.Errorf("%s not registered", name)
				}
			}
			for _, name := range absent {
				if _, ok := flat[name]; ok {
					t.Errorf("%s registered with the feature off", name)
				}
			}
			if v.checkpoint {
				if flat["checkpoint_snapshots_total"] < 1 || flat["checkpoint_snapshot_bytes"] <= 0 {
					t.Fatalf("no snapshot recorded after 32 commands at interval 8: %v / %v",
						flat["checkpoint_snapshots_total"], flat["checkpoint_snapshot_bytes"])
				}
			}
		})
	}
}

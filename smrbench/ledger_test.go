package main

import (
	"encoding/json"
	"path/filepath"
	"testing"
	"time"

	"github.com/psmr/psmr"
	"github.com/psmr/psmr/internal/command"
	"github.com/psmr/psmr/internal/kvstore"
	"github.com/psmr/psmr/internal/transport"
	"github.com/psmr/psmr/internal/workload"
)

func TestClassify(t *testing.T) {
	for addr, want := range map[transport.Addr]role{
		"proxy0":          roleProxy,
		"proxy12":         roleProxy,
		"g0/coord0":       roleCoordinator,
		"g4/coord1!proto": roleCoordinator,
		"g0/acc2":         roleAcceptor,
		"g3/relay0":       roleRelay,
		"r1/g4":           roleLearner,
		"r0/ckpt":         roleCheckpoint,
		"r1/ckpt-fetch":   roleCheckpoint,
		"client/7":        roleClient,
	} {
		if got, ok := classify(addr); !ok || got != want {
			t.Errorf("classify(%q) = %v, %v; want %v", addr, got, ok, want)
		}
	}
	for _, addr := range []transport.Addr{
		"", "proxy", "proxyA", "client/", "g0/coord", "g0/coordX", "g/acc0", "gx/acc0",
		"g0/acc0!proto", "g0/learner0", "r0/x", "r0/g", "x0/g0", "norep/server",
	} {
		if got, ok := classify(addr); ok {
			t.Errorf("classify(%q) = %v, want unknown", addr, got)
		}
	}
}

func smallStore() command.Service {
	st := kvstore.New()
	st.Preload(100)
	return st
}

// TestClassifiesEveryClusterAddress starts every workload's deployment,
// and one with standby coordinators and checkpoints, which no workload
// uses, through the ledger transport. Every address the cluster listens
// on or sends to must have a role, so a new role cannot drop out of the
// ledger unnoticed.
func TestClassifiesEveryClusterAddress(t *testing.T) {
	deployments := []psmr.Config{{
		Mode: psmr.ModeSPSMR, Scheduler: psmr.SchedIndex, Workers: 2, Replicas: 2,
		CoordinatorCandidates: 2, Checkpoint: psmr.CheckpointConfig{Interval: 32},
	}}
	for _, w := range workloads {
		deployments = append(deployments, w.deploy)
	}
	seen := map[role]bool{}
	for _, cfg := range deployments {
		net := &ledgerTransport{inner: transport.NewMemNetwork(1)}
		cfg.Transport, cfg.Spec, cfg.NewService = net, kvstore.Spec(), smallStore
		cl, err := psmr.StartCluster(cfg)
		if err != nil {
			t.Fatalf("%v: %v", cfg.Mode, err)
		}
		c, err := cl.NewClient()
		if err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 100; i++ {
			out, err := c.Invoke(kvstore.CmdUpdate, kvstore.EncodeKeyValue(i, kvstore.EncodeKey(i)))
			if err != nil || len(out) != 1 || out[0] != kvstore.OK {
				t.Fatalf("%v: update %d: %x, %v", cfg.Mode, i, out, err)
			}
		}
		_ = c.Close()
		_ = cl.Close()
		for _, addr := range net.Listened() {
			r, ok := classify(addr)
			if !ok {
				t.Errorf("%v: cluster listens on %q, which has no role", cfg.Mode, addr)
			}
			seen[r] = true
		}
		if n := net.unknown.Load(); n > 0 {
			t.Errorf("%v: %d frames went to addresses with no role", cfg.Mode, n)
		}
	}
	for r := role(0); r < numRoles; r++ {
		if !seen[r] {
			t.Errorf("no deployment listened on a %v address", r)
		}
	}
}

// TestChecksPassOnEveryWorkload runs each workload, scaled down, through
// both phases and the ledger, and requires every correctness check to
// pass and every per-layer metric to be a number.
func TestChecksPassOnEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			w.keys = 2000
			led := newLedger()
			cl, first, _, err := startCluster(w, led)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			g, err := cl.loadgen(first, led)
			if err != nil {
				t.Fatal(err)
			}
			in := layerInputs{mode: w.deploy.Mode, tracer: cl.Tracer(), tracedKcps: 1, plainKcps: 1}
			in.committed = g.closedLoop(w.closedStreams(1), 100*time.Millisecond, 300*time.Millisecond, func(start bool) {
				if start {
					in.before = led.snap(cl.Cluster)
				} else {
					in.after = led.snap(cl.Cluster)
				}
			}).committed
			run := g.openLoop(w.openStreams(1), 2000, 300*time.Millisecond)
			in.open = run.stats(g.finish())
			in.rtEnd = readRuntime()
			if err := cl.check(g); err != nil {
				t.Fatalf("correctness check: %v", err)
			}
			if in.committed == 0 || g.failed.Load() != 0 {
				t.Fatalf("committed %d, failed %d", in.committed, g.failed.Load())
			}
			if _, err := json.Marshal(led.metrics(in)); err != nil {
				t.Fatalf("per-layer metrics: %v", err)
			}
			if err := led.write(filepath.Join(t.TempDir(), "ledger.jsonl"), stamp{}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCheckReplyRejectsWrongCodes(t *testing.T) {
	read := workload.Op{Cmd: kvstore.CmdRead, Input: kvstore.EncodeKey(1)}
	update := workload.Op{Cmd: kvstore.CmdUpdate, Input: kvstore.EncodeKeyValue(1, kvstore.EncodeKey(2))}
	del := workload.Op{Cmd: kvstore.CmdDelete, Input: kvstore.EncodeKey(churnBase)}
	ok := append([]byte{kvstore.OK}, kvstore.EncodeKey(1)...)
	for _, c := range []struct {
		op   workload.Op
		out  []byte
		good bool
	}{
		{read, ok, true},
		{read, []byte{kvstore.ErrNotFound}, false},
		{read, []byte{kvstore.OK, 1}, false},
		{update, []byte{kvstore.OK}, true},
		{update, []byte{kvstore.ErrNotFound}, false},
		{update, nil, false},
		{del, []byte{kvstore.OK}, true},
		{del, []byte{kvstore.ErrNotFound}, true},
		{del, []byte{7}, false},
	} {
		if err := checkReply(c.op, c.out); (err == nil) != c.good {
			t.Errorf("checkReply(cmd %d, %x) = %v, want good=%v", c.op.Cmd, c.out, err, c.good)
		}
	}
}

func TestSpecStatesTheFixedRates(t *testing.T) {
	for _, w := range workloads {
		if err := checkSpecRate("../BENCHMARK.json", w); err != nil {
			t.Error(err)
		}
	}
	w := workloads[0]
	w.rate++
	if err := checkSpecRate("../BENCHMARK.json", w); err == nil {
		t.Errorf("a rate BENCHMARK.json does not state was accepted")
	}
}

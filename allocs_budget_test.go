//go:build !race

package psmr_test

import (
	"errors"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sync"
	"testing"

	"github.com/psmr/psmr"
	"github.com/psmr/psmr/internal/command"
	"github.com/psmr/psmr/internal/core"
	"github.com/psmr/psmr/internal/kvstore"
	"github.com/psmr/psmr/internal/transport"
	"github.com/psmr/psmr/internal/workload"
)

// decidedPathAllocBudget is the cluster-wide heap allocations per
// command the decided path may cost, counted over everything one
// process runs: client sessions, proxy, ordering, both replicas and
// the load loop itself. What remains are the owned objects each hop
// hands to another goroutine — the call and its completion channel,
// the propose frame the client keeps for retransmission, one reply
// frame per replica — plus the amortized per-batch frames and the
// store's own writes.
const decidedPathAllocBudget = 11

// TestDecidedPathAllocsPerCommand pins the decided path's allocation
// budget end to end: a fixed number of kvstore commands (80% update,
// 10% two-key transfer, 10% read) through an sP-SMR/index cluster
// behind a proxy and a relay, and through a classic-SMR cluster, both
// on the in-process network. Heap allocations are read from
// runtime/metrics before and after the measured commands, after a
// warm-up that grows every pool, ring and free list to its steady
// size.
func TestDecidedPathAllocsPerCommand(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end allocation budget skipped in -short")
	}
	for _, tc := range []struct {
		name string
		cfg  psmr.Config
	}{
		{"spsmr-index-proxied", psmr.Config{
			Mode: psmr.ModeSPSMR, Scheduler: psmr.SchedIndex, Workers: 4, Replicas: 2,
			Proxies: 1, FanoutDegree: 1,
		}},
		{"smr", psmr.Config{Mode: psmr.ModeSMR, Replicas: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			perCmd := measureAllocsPerCommand(t, tc.cfg)
			t.Logf("%s: %.2f allocs/cmd (budget %d)", tc.name, perCmd, decidedPathAllocBudget)
			if perCmd > decidedPathAllocBudget {
				t.Fatalf("%s: %.2f allocs/cmd, budget %d", tc.name, perCmd, decidedPathAllocBudget)
			}
		})
	}
}

func measureAllocsPerCommand(t *testing.T, cfg psmr.Config) float64 {
	t.Helper()
	const (
		keys     = 10_000
		sessions = 2
		window   = 16
		warmUp   = 4_000
		measured = 24_000
	)
	cfg.Spec = kvstore.Spec()
	cfg.NewService = func() command.Service {
		st := kvstore.New()
		st.Preload(keys)
		return st
	}
	cfg.Transport = transport.NewMemNetwork(1)
	cl, err := psmr.StartCluster(cfg)
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	defer cl.Close()

	// One pre-generated stream per outstanding call, so the load loop
	// itself allocates nothing per command.
	uniform := workload.Uniform{N: keys}
	mix := workload.NewMix(
		workload.MixEntry{Weight: 80, Make: workload.KVUpdates(uniform).Next},
		workload.MixEntry{Weight: 10, Make: workload.KVTransfers(uniform).Next},
		workload.MixEntry{Weight: 10, Make: workload.KVReads(uniform).Next},
	)
	const slots = sessions * window
	streams := make([][]workload.Op, slots)
	for i := range streams {
		rng := rand.New(rand.NewSource(int64(i + 1)))
		streams[i] = make([]workload.Op, 64)
		for j := range streams[i] {
			streams[i][j] = mix.Next(rng)
		}
	}
	var clients []*core.Client
	for i := 0; i < sessions; i++ {
		c, err := cl.NewClient()
		if err != nil {
			t.Fatalf("NewClient: %v", err)
		}
		defer c.Close()
		clients = append(clients, c)
	}

	run := func(total int) {
		var wg sync.WaitGroup
		errs := make(chan error, slots)
		for i := 0; i < slots; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				c, ops := clients[i%sessions], streams[i]
				for n := 0; n < total/slots; n++ {
					op := ops[n%len(ops)]
					out, err := c.Invoke(op.Cmd, op.Input)
					if err == nil && (len(out) == 0 || out[0] != kvstore.OK) {
						err = errBadReply
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}(i)
		}
		wg.Wait()
		close(errs)
		if err := <-errs; err != nil {
			t.Fatalf("command failed: %v", err)
		}
	}
	run(warmUp)
	runtime.GC()
	before := heapAllocObjects()
	run(measured)
	after := heapAllocObjects()
	return float64(after-before) / float64(measured/slots*slots)
}

var errBadReply = errors.New("reply status is not OK")

// heapAllocObjects reads the cumulative count of heap allocations.
func heapAllocObjects() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

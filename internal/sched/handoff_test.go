package sched

import (
	"encoding/binary"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/psmr/psmr/internal/cdep"
	"github.com/psmr/psmr/internal/command"
	"github.com/psmr/psmr/internal/transport"
)

// xferInput encodes a two-key transfer input ([k1][k2][seq]).
func xferInput(k1, k2, seq uint64) []byte {
	in := make([]byte, 24)
	binary.LittleEndian.PutUint64(in, k1)
	binary.LittleEndian.PutUint64(in[8:], k2)
	binary.LittleEndian.PutUint64(in[16:], seq)
	return in
}

// TestAdmitKeyedIndexBatchZeroAlloc pins the zero-alloc admission
// claim: the batched keyed path of the index engine — dedup, routing,
// shard locks, ingress hand-off, execution, completion — performs zero
// heap allocations per command at steady state.
func TestAdmitKeyedIndexBatchZeroAlloc(t *testing.T) {
	if benchRaceEnabled {
		t.Skip("allocation counts are skewed under the race detector")
	}
	if testing.Short() {
		t.Skip("benchmark-backed test skipped in -short")
	}
	r := testing.Benchmark(BenchmarkAdmitKeyedIndexBatch)
	if a := r.AllocsPerOp(); a != 0 {
		t.Fatalf("BenchmarkAdmitKeyedIndexBatch: %d allocs/op (%d B/op), want 0",
			a, r.AllocedBytesPerOp())
	}
}

// handoffBenchKeys pins the benchmark's keys so the scenario is
// deterministic: the slow key S lives on worker 0, the transfer's fast
// key F and all the unrelated keys live on worker 1. The remaining six
// workers stay idle (every command is keyed, so nothing is stealable):
// the benchmark isolates the two owners' interaction at the 8-worker
// configuration the acceptance bar names.
const (
	handoffSlowKey = 1
	handoffFastKey = 2
	handoffFreeKey = 100 // unrelated keys: handoffFreeKey+j
)

// BenchmarkMultiKeyHandoff measures how an owner's unrelated work
// queued behind a multi-key token overlaps with the token's wait. Each
// iteration, fully drained before the next:
//
//   - M writes on the slow key S (pinned to worker 0) — the backlog
//     that keeps the token pending,
//   - one transfer {S, F} (F pinned to worker 1) — the token,
//   - W writes on W distinct unrelated keys pinned to worker 1,
//     admitted AFTER the token.
//
// Worker 1 pops the token, deposits and keeps draining, overlapping
// the unrelated work with worker 0's backlog: ~max(M+1, W)·sleep per
// round. An owner that parked at the token instead would serialize
// ~(M+1+W)·sleep.
func BenchmarkMultiKeyHandoff(b *testing.B) {
	const (
		workers   = 8
		backlogM  = 16
		unrelated = 16
		sleep     = 20 * time.Microsecond
	)
	net := transport.NewMemNetwork(1)
	defer net.Close()
	pins := map[uint64]int{handoffSlowKey: 0, handoffFastKey: 1}
	for j := 0; j < unrelated; j++ {
		pins[handoffFreeKey+uint64(j)] = 1
	}
	compiled, err := cdep.Compile(spec(), workers, cdep.WithPlacement(pins))
	if err != nil {
		b.Fatalf("Compile: %v", err)
	}
	svc := &sleepService{d: sleep}
	e, err := StartIndex(Config{
		Workers:   workers,
		Service:   svc,
		Compiled:  compiled,
		Transport: net,
	})
	if err != nil {
		b.Fatalf("StartIndex: %v", err)
	}
	defer e.Close()

	var done, seq int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < backlogM; j++ {
			seq++
			if !e.Submit(&command.Request{
				Client: 1, Seq: uint64(seq), Cmd: cmdWrite,
				Input: input(handoffSlowKey, uint64(seq)),
			}) {
				b.Fatal("Submit failed")
			}
		}
		seq++
		if !e.Submit(&command.Request{
			Client: 1, Seq: uint64(seq), Cmd: cmdXfer,
			Input: xferInput(handoffSlowKey, handoffFastKey, uint64(seq)),
		}) {
			b.Fatal("Submit failed")
		}
		for j := 0; j < unrelated; j++ {
			seq++
			if !e.Submit(&command.Request{
				Client: 1, Seq: uint64(seq), Cmd: cmdWrite,
				Input: input(handoffFreeKey+uint64(j), uint64(seq)),
			}) {
				b.Fatal("Submit failed")
			}
		}
		done += backlogM + 1 + unrelated
		for svc.n.Load() < done {
			runtime.Gosched()
		}
	}
	b.StopTimer()
}

// handoffProbeService blocks writes to the slow key until released and
// counts the other executions, so tests can observe the engine with a
// multi-key token provably pending.
type handoffProbeService struct {
	release   chan struct{}
	blocked   atomic.Int64 // writes to handoffSlowKey currently parked
	unrelated atomic.Int64 // writes to other keys completed
	xfers     atomic.Int64 // transfers completed
}

func (s *handoffProbeService) Execute(cmd command.ID, in []byte) []byte {
	switch cmd {
	case cmdXfer:
		s.xfers.Add(1)
	case cmdWrite:
		if binary.LittleEndian.Uint64(in) == handoffSlowKey {
			s.blocked.Add(1)
			<-s.release
		} else {
			s.unrelated.Add(1)
		}
	}
	return nil
}

func waitCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// startHandoffProbe builds a 2-worker engine with the slow key pinned
// to worker 0 and everything else pinned to worker 1, submits a write
// that blocks inside the service on worker 0, then a transfer token
// {slow, fast} and ten unrelated writes for worker 1.
func startHandoffProbe(t *testing.T) (*IndexScheduler, *handoffProbeService) {
	t.Helper()
	net := transport.NewMemNetwork(1)
	pins := map[uint64]int{handoffSlowKey: 0, handoffFastKey: 1}
	for j := 0; j < 10; j++ {
		pins[handoffFreeKey+uint64(j)] = 1
	}
	compiled, err := cdep.Compile(spec(), 2, cdep.WithPlacement(pins))
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	svc := &handoffProbeService{release: make(chan struct{})}
	s, err := StartIndex(Config{
		Workers: 2, Service: svc, Compiled: compiled, Transport: net,
	})
	if err != nil {
		t.Fatalf("StartIndex: %v", err)
	}
	t.Cleanup(func() { _ = s.Close(); _ = net.Close() })

	seq := uint64(0)
	submit := func(cmd command.ID, in []byte) {
		seq++
		if !s.Submit(&command.Request{Client: 1, Seq: seq, Cmd: cmd, Input: in}) {
			t.Fatal("Submit failed")
		}
	}
	submit(cmdWrite, input(handoffSlowKey, 1))
	waitCond(t, "slow write to park in the service", func() bool { return svc.blocked.Load() == 1 })
	submit(cmdXfer, xferInput(handoffSlowKey, handoffFastKey, 2))
	for j := 0; j < 10; j++ {
		submit(cmdWrite, input(handoffFreeKey+uint64(j), uint64(3+j)))
	}
	return s, svc
}

// TestHandoffOwnersKeepDraining is the protocol's point: with the
// transfer token pending (its slow-key owner stuck behind a blocked
// write), the fast-key owner deposits and keeps executing the
// unrelated keyed work queued behind the token — then the release
// makes the last owner execute the transfer.
func TestHandoffOwnersKeepDraining(t *testing.T) {
	_, svc := startHandoffProbe(t)
	waitCond(t, "unrelated work to drain past the pending token", func() bool {
		return svc.unrelated.Load() == 10
	})
	if got := svc.xfers.Load(); got != 0 {
		t.Fatalf("transfer executed (%d) while an owner had not deposited", got)
	}
	close(svc.release)
	waitCond(t, "transfer to execute after the deposit", func() bool {
		return svc.xfers.Load() == 1
	})
}

// TestMKTokenDrainDecaysRaided is the placement-feedback regression
// test: draining a multi-key token must halve the queue's raided
// penalty exactly like an empty-queue pop does — a token-fed queue
// never goes empty, so before the fix the penalty stuck at its peak.
// Worker 0's stream is [blocker, xfer×3, blocker]: the counter is
// armed while the worker is provably parked inside the first blocker
// (no pop can race the store), and read back once it is parked inside
// the second — between the two it popped exactly the three tokens, so
// only the token-drain decay can account for the change.
func TestMKTokenDrainDecaysRaided(t *testing.T) {
	net := transport.NewMemNetwork(1)
	pins := map[uint64]int{handoffSlowKey: 0, handoffFastKey: 1}
	compiled, err := cdep.Compile(spec(), 2, cdep.WithPlacement(pins))
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	svc := &handoffProbeService{release: make(chan struct{})}
	s, err := StartIndex(Config{Workers: 2, Service: svc, Compiled: compiled, Transport: net})
	if err != nil {
		t.Fatalf("StartIndex: %v", err)
	}
	t.Cleanup(func() { _ = s.Close(); _ = net.Close() })

	reqs := []*command.Request{
		{Client: 1, Seq: 1, Cmd: cmdWrite, Input: input(handoffSlowKey, 1)},
		{Client: 1, Seq: 2, Cmd: cmdXfer, Input: xferInput(handoffSlowKey, handoffFastKey, 2)},
		{Client: 1, Seq: 3, Cmd: cmdXfer, Input: xferInput(handoffSlowKey, handoffFastKey, 3)},
		{Client: 1, Seq: 4, Cmd: cmdXfer, Input: xferInput(handoffSlowKey, handoffFastKey, 4)},
		{Client: 1, Seq: 5, Cmd: cmdWrite, Input: input(handoffSlowKey, 5)},
	}
	if !s.SubmitBatch(reqs) {
		t.Fatal("SubmitBatch failed")
	}
	waitCond(t, "worker 0 to park inside the first blocker", func() bool {
		return svc.blocked.Load() == 1
	})
	s.queues[0].raided.Store(64)
	svc.release <- struct{}{} // free the first blocker only
	waitCond(t, "worker 0 to drain the tokens and park inside the second blocker", func() bool {
		return svc.blocked.Load() == 2 && svc.xfers.Load() == 3
	})
	if got := s.queues[0].raided.Load(); got != 8 {
		t.Fatalf("worker 0 raided = %d after draining 3 multi-key tokens, want 8 (64 halved 3x)", got)
	}
	close(svc.release)
}

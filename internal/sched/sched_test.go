package sched

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/psmr/psmr/internal/cdep"
	"github.com/psmr/psmr/internal/command"
	"github.com/psmr/psmr/internal/transport"
)

// Test command set: keyed writes/reads, a global command, an
// independent (free-routed) ping, a two-key transfer, and a read-only
// two-key snapshot read.
const (
	cmdWrite command.ID = iota + 1
	cmdRead
	cmdGlobal
	cmdPing
	cmdXfer
	cmdMRead
)

func key(input []byte) (uint64, bool) {
	if len(input) < 8 {
		return 0, false
	}
	return binary.LittleEndian.Uint64(input), true
}

// xferKeys reads the two keys of a transfer input ([k1][k2][seq]).
func xferKeys(dst []uint64, input []byte) ([]uint64, bool) {
	if len(input) < 16 {
		return dst, false
	}
	return append(dst,
		binary.LittleEndian.Uint64(input),
		binary.LittleEndian.Uint64(input[8:16])), true
}

func spec() cdep.Spec {
	return cdep.Spec{
		Commands: []cdep.Command{
			{ID: cmdWrite, Name: "write", Key: key},
			{ID: cmdRead, Name: "read", Key: key},
			{ID: cmdGlobal, Name: "global"},
			{ID: cmdPing, Name: "ping"},
			{ID: cmdXfer, Name: "xfer", KeySet: xferKeys},
			{ID: cmdMRead, Name: "mread", KeySet: xferKeys},
		},
		Deps: []cdep.Dep{
			{A: cmdWrite, B: cmdWrite, SameKey: true},
			{A: cmdWrite, B: cmdRead, SameKey: true},
			{A: cmdXfer, B: cmdXfer, SameKey: true},
			{A: cmdXfer, B: cmdWrite, SameKey: true},
			{A: cmdXfer, B: cmdRead, SameKey: true},
			// The snapshot read conflicts with same-key writers only (no
			// self-dep, no dep on cmdRead): compiled READ-ONLY multikey.
			{A: cmdMRead, B: cmdWrite, SameKey: true},
			{A: cmdMRead, B: cmdXfer, SameKey: true},
			{A: cmdGlobal, B: cmdGlobal}, {A: cmdGlobal, B: cmdWrite},
			{A: cmdGlobal, B: cmdRead}, {A: cmdGlobal, B: cmdPing},
			{A: cmdGlobal, B: cmdXfer}, {A: cmdGlobal, B: cmdMRead},
		},
	}
}

// traceService records execution order and checks mutual exclusion of
// conflicting commands.
type traceService struct {
	mu        sync.Mutex
	order     []uint64 // seq of executed commands
	inFlight  map[uint64]command.ID
	conflicts *cdep.Compiled
	violation atomic.Bool
	slow      time.Duration
}

func (s *traceService) Execute(cmd command.ID, input []byte) []byte {
	seq := binary.LittleEndian.Uint64(input[8:16])
	s.mu.Lock()
	for otherKey, otherCmd := range s.inFlight {
		otherInput := binary.LittleEndian.AppendUint64(nil, otherKey)
		if s.conflicts.Conflicts(cmd, input, otherCmd, otherInput) {
			s.violation.Store(true)
		}
	}
	k, _ := key(input)
	s.inFlight[k] = cmd
	s.order = append(s.order, seq)
	s.mu.Unlock()

	if s.slow > 0 {
		time.Sleep(s.slow)
	}

	s.mu.Lock()
	delete(s.inFlight, k)
	s.mu.Unlock()
	return []byte{0}
}

func input(k, seq uint64) []byte {
	buf := make([]byte, 16)
	binary.LittleEndian.PutUint64(buf, k)
	binary.LittleEndian.PutUint64(buf[8:], seq)
	return buf
}

func startSched(t *testing.T, workers int, svc command.Service) (*Scheduler, *transport.MemNetwork) {
	t.Helper()
	net := transport.NewMemNetwork(1)
	compiled, err := cdep.Compile(spec(), workers)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	s, err := Start(Config{
		Workers:   workers,
		Service:   svc,
		Compiled:  compiled,
		Transport: net,
	})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { _ = s.Close(); _ = net.Close() })
	return s, net
}

func waitExecuted(t *testing.T, svc *traceService, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		svc.mu.Lock()
		got := len(svc.order)
		svc.mu.Unlock()
		if got >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d executions", n)
}

func TestIndependentCommandsRunConcurrently(t *testing.T) {
	compiled, _ := cdep.Compile(spec(), 4)
	svc := &traceService{inFlight: make(map[uint64]command.ID), conflicts: compiled, slow: 5 * time.Millisecond}
	s, _ := startSched(t, 4, svc)

	start := time.Now()
	const n = 16
	for i := uint64(0); i < n; i++ {
		if !s.Submit(&command.Request{Client: 1, Seq: i + 1, Cmd: cmdWrite, Input: input(i, i+1)}) {
			t.Fatal("Submit failed")
		}
	}
	waitExecuted(t, svc, n)
	elapsed := time.Since(start)
	// 16 × 5ms serially = 80ms; 4 workers should finish in ~20-40ms.
	if elapsed > 70*time.Millisecond {
		t.Fatalf("independent commands apparently serialized: %v", elapsed)
	}
	if svc.violation.Load() {
		t.Fatal("conflicting commands overlapped")
	}
}

func TestConflictingCommandsSerialized(t *testing.T) {
	compiled, _ := cdep.Compile(spec(), 4)
	svc := &traceService{inFlight: make(map[uint64]command.ID), conflicts: compiled, slow: time.Millisecond}
	s, _ := startSched(t, 4, svc)

	// All writes to the same key: must execute in submission order.
	const n = 30
	for i := uint64(0); i < n; i++ {
		s.Submit(&command.Request{Client: 1, Seq: i + 1, Cmd: cmdWrite, Input: input(7, i+1)})
	}
	waitExecuted(t, svc, n)
	if svc.violation.Load() {
		t.Fatal("same-key writes overlapped")
	}
	svc.mu.Lock()
	defer svc.mu.Unlock()
	for i := 0; i < n; i++ {
		if svc.order[i] != uint64(i+1) {
			t.Fatalf("order[%d] = %d, want %d (submission order)", i, svc.order[i], i+1)
		}
	}
}

func TestGlobalCommandIsBarrier(t *testing.T) {
	compiled, _ := cdep.Compile(spec(), 4)
	svc := &traceService{inFlight: make(map[uint64]command.ID), conflicts: compiled, slow: 2 * time.Millisecond}
	s, _ := startSched(t, 4, svc)

	// Independent writes, then a global, then more writes: the global
	// must execute after all of the first batch and before all of the
	// second (its seq is 100).
	for i := uint64(1); i <= 8; i++ {
		s.Submit(&command.Request{Client: 1, Seq: i, Cmd: cmdWrite, Input: input(i, i)})
	}
	s.Submit(&command.Request{Client: 1, Seq: 100, Cmd: cmdGlobal, Input: input(999, 100)})
	for i := uint64(201); i <= 208; i++ {
		s.Submit(&command.Request{Client: 1, Seq: i, Cmd: cmdWrite, Input: input(i, i)})
	}
	waitExecuted(t, svc, 17)
	if svc.violation.Load() {
		t.Fatal("global command overlapped another command")
	}
	svc.mu.Lock()
	defer svc.mu.Unlock()
	var globalPos int
	for i, seq := range svc.order {
		if seq == 100 {
			globalPos = i
		}
	}
	for i, seq := range svc.order {
		if seq < 100 && i > globalPos {
			t.Fatalf("pre-barrier command %d executed after the barrier", seq)
		}
		if seq > 200 && i < globalPos {
			t.Fatalf("post-barrier command %d executed before the barrier", seq)
		}
	}
}

func TestReadersShareWritersExclude(t *testing.T) {
	compiled, _ := cdep.Compile(spec(), 8)
	svc := &traceService{inFlight: make(map[uint64]command.ID), conflicts: compiled, slow: 3 * time.Millisecond}
	s, _ := startSched(t, 8, svc)

	// 8 reads of the same key may all run concurrently (reads don't
	// self-conflict); with 8 workers and 3ms each this finishes fast.
	start := time.Now()
	for i := uint64(1); i <= 8; i++ {
		s.Submit(&command.Request{Client: 1, Seq: i, Cmd: cmdRead, Input: input(5, i)})
	}
	waitExecuted(t, svc, 8)
	if elapsed := time.Since(start); elapsed > 18*time.Millisecond {
		t.Fatalf("same-key reads apparently serialized: %v", elapsed)
	}
	if svc.violation.Load() {
		t.Fatal("conflict violation")
	}
}

func TestDedupAnswersFromCache(t *testing.T) {
	net := transport.NewMemNetwork(1)
	t.Cleanup(func() { _ = net.Close() })
	var count atomic.Int64
	svc := countingService{&count}
	compiled, _ := cdep.Compile(spec(), 2)
	s, err := Start(Config{Workers: 2, Service: svc, Compiled: compiled, Transport: net})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })

	reply, err := net.Listen("probe")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	req := &command.Request{Client: 9, Seq: 1, Cmd: cmdWrite, Input: input(1, 1), Reply: "probe"}
	s.Submit(req)
	recvFrame(t, reply)
	// Retransmission: must reply again without re-executing.
	s.Submit(req)
	recvFrame(t, reply)
	if got := count.Load(); got != 1 {
		t.Fatalf("executions = %d, want 1", got)
	}
}

type countingService struct{ n *atomic.Int64 }

func (c countingService) Execute(cmd command.ID, input []byte) []byte {
	c.n.Add(1)
	return []byte{0}
}

func recvFrame(t *testing.T, ep transport.Endpoint) []byte {
	t.Helper()
	select {
	case frame := <-ep.Recv():
		return frame
	case <-time.After(3 * time.Second):
		t.Fatal("timed out waiting for response")
		return nil
	}
}

// Regression test for retransmission metastability: duplicates of a
// command whose original is still in flight (parked or executing) must
// be dropped at admission, not queued as new work.
func TestInFlightDuplicatesDropped(t *testing.T) {
	net := transport.NewMemNetwork(1)
	t.Cleanup(func() { _ = net.Close() })
	var count atomic.Int64
	gate := make(chan struct{})
	svc := gatedService{n: &count, gate: gate}
	compiled, _ := cdep.Compile(spec(), 1)
	s, err := Start(Config{Workers: 1, Service: svc, Compiled: compiled, Transport: net})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })

	reply, err := net.Listen("probe")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	req := &command.Request{Client: 5, Seq: 1, Cmd: cmdWrite, Input: input(1, 1), Reply: "probe"}
	s.Submit(req)
	// Retransmission storm while the original is stuck executing.
	for i := 0; i < 50; i++ {
		s.Submit(req)
	}
	close(gate) // let the original finish
	recvFrame(t, reply)
	// One more retransmission after completion answers from the cache.
	s.Submit(req)
	recvFrame(t, reply)
	if got := count.Load(); got != 1 {
		t.Fatalf("executions = %d, want 1 (duplicates must not queue)", got)
	}
}

type gatedService struct {
	n    *atomic.Int64
	gate chan struct{}
}

func (g gatedService) Execute(cmd command.ID, input []byte) []byte {
	<-g.gate
	g.n.Add(1)
	return []byte{0}
}

func TestSubmitAfterClose(t *testing.T) {
	compiled, _ := cdep.Compile(spec(), 1)
	net := transport.NewMemNetwork(1)
	defer net.Close()
	s, err := Start(Config{Workers: 1, Service: countingService{&atomic.Int64{}}, Compiled: compiled, Transport: net})
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	_ = s.Close()
	if s.Submit(&command.Request{Client: 1, Seq: 1, Cmd: cmdRead, Input: input(1, 1)}) {
		t.Fatal("Submit succeeded after Close")
	}
}

func TestHighThroughputMixedLoad(t *testing.T) {
	compiled, _ := cdep.Compile(spec(), 8)
	svc := &traceService{inFlight: make(map[uint64]command.ID), conflicts: compiled}
	s, _ := startSched(t, 8, svc)

	const n = 20000
	for i := uint64(1); i <= n; i++ {
		cmd := cmdWrite
		switch {
		case i%97 == 0:
			cmd = cmdGlobal
		case i%3 == 0:
			cmd = cmdRead
		}
		s.Submit(&command.Request{Client: 1, Seq: i, Cmd: cmd, Input: input(i%64, i)})
	}
	waitExecuted(t, svc, n)
	if svc.violation.Load() {
		t.Fatal("conflict violation under load")
	}
}

func TestConfigValidation(t *testing.T) {
	net := transport.NewMemNetwork(1)
	defer net.Close()
	if _, err := Start(Config{Workers: 0}); err == nil {
		t.Fatal("zero workers accepted")
	}
	if _, err := Start(Config{Workers: 1, Transport: net}); err == nil {
		t.Fatal("missing Compiled accepted")
	}
	_ = fmt.Sprint() // keep fmt imported
}

package optimistic

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/psmr/psmr/internal/cdep"
	"github.com/psmr/psmr/internal/command"
	"github.com/psmr/psmr/internal/kvstore"
	"github.com/psmr/psmr/internal/netfs"
	"github.com/psmr/psmr/internal/sched"
	"github.com/psmr/psmr/internal/transport"
)

// startKV builds an executor over a preloaded kvstore (a
// command.Versioned service) on the given engine.
func startKV(t *testing.T, kind sched.SchedulerKind, workers, keys int) (*Executor, *kvstore.Store, *transport.MemNetwork) {
	t.Helper()
	st := kvstore.New()
	st.Preload(keys)
	compiled, err := cdep.Compile(kvstore.Spec(), workers)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	net := transport.NewMemNetwork(1)
	t.Cleanup(func() { _ = net.Close() })
	x, err := StartExecutor(ExecutorConfig{
		Workers:   workers,
		Service:   st,
		Compiled:  compiled,
		Transport: net,
		Scheduler: kind,
	})
	if err != nil {
		t.Fatalf("StartExecutor: %v", err)
	}
	t.Cleanup(func() { _ = x.Close() })
	return x, st, net
}

// req builds one kvstore request. Client/seq double as the request id.
func req(client, seq uint64, cmd command.ID, input []byte) *command.Request {
	return &command.Request{Client: client, Seq: seq, Cmd: cmd, Input: input}
}

func val(v uint64) []byte { return binary.LittleEndian.AppendUint64(nil, v) }

func readKey(t *testing.T, st *kvstore.Store, key uint64) uint64 {
	t.Helper()
	out := st.Execute(kvstore.CmdRead, kvstore.EncodeKey(key))
	value, code := kvstore.DecodeReadOutput(out)
	if code != kvstore.OK || len(value) < 8 {
		t.Fatalf("read %d: code %d", key, code)
	}
	return binary.LittleEndian.Uint64(value)
}

// Speculation that matches the decided order confirms without
// executing anything on the decided path: 100% hit rate, no rollbacks.
func TestHitPathConfirmsSpeculation(t *testing.T) {
	for _, kind := range []sched.SchedulerKind{sched.KindScan, sched.KindIndex} {
		t.Run(kind.String(), func(t *testing.T) {
			x, st, _ := startKV(t, kind, 4, 64)
			var batch []*command.Request
			for i := uint64(0); i < 16; i++ {
				batch = append(batch, req(1, i+1, kvstore.CmdUpdate,
					kvstore.EncodeKeyValue(i%8, val(100+i))))
			}
			x.Speculate(batch)
			x.Commit(batch) // decided order == optimistic order
			c := x.Counters()
			if c.Hits != 16 || c.Misses != 0 || c.Rollbacks != 0 {
				t.Fatalf("counters = %+v, want 16 hits", c)
			}
			// Last update per key wins: key k holds 100+k+8.
			for k := uint64(0); k < 8; k++ {
				if got := readKey(t, st, k); got != 100+k+8 {
					t.Fatalf("key %d = %d, want %d", k, got, 100+k+8)
				}
			}
		})
	}
}

// A decided command that was never speculated executes on the decided
// path (miss), serialized behind conflicting speculations.
func TestMissExecutesOnDecidedPath(t *testing.T) {
	x, st, _ := startKV(t, sched.KindIndex, 4, 64)
	spec := []*command.Request{req(1, 1, kvstore.CmdUpdate, kvstore.EncodeKeyValue(3, val(111)))}
	x.Speculate(spec)
	missed := req(2, 1, kvstore.CmdUpdate, kvstore.EncodeKeyValue(3, val(222)))
	x.Commit(spec)                       // hit
	x.Commit([]*command.Request{missed}) // miss, after the hit
	c := x.Counters()
	if c.Hits != 1 || c.Misses != 1 || c.Rollbacks != 0 {
		t.Fatalf("counters = %+v, want 1 hit / 1 miss", c)
	}
	if got := readKey(t, st, 3); got != 222 {
		t.Fatalf("key 3 = %d, want 222 (decided-path execution lost)", got)
	}
}

// When the decided order disagrees with the speculation order on a
// conflicting pair, the conflicting suffix rolls back and re-executes
// in final order; non-conflicting speculations survive.
func TestMismatchRollsBackConflictingSuffix(t *testing.T) {
	for _, kind := range []sched.SchedulerKind{sched.KindScan, sched.KindIndex} {
		t.Run(kind.String(), func(t *testing.T) {
			x, st, _ := startKV(t, kind, 4, 64)
			a := req(1, 1, kvstore.CmdUpdate, kvstore.EncodeKeyValue(5, val(111)))
			b := req(2, 1, kvstore.CmdUpdate, kvstore.EncodeKeyValue(5, val(222)))
			other := req(3, 1, kvstore.CmdUpdate, kvstore.EncodeKeyValue(9, val(999)))
			// Speculate a before b; decide b before a.
			x.Speculate([]*command.Request{a, other})
			x.Commit([]*command.Request{}) // no-op
			x.Speculate([]*command.Request{b})
			x.Commit([]*command.Request{b, a, other})
			c := x.Counters()
			if c.Rollbacks == 0 {
				t.Fatalf("counters = %+v, want at least one rollback", c)
			}
			// Final order b then a: key 5 ends at 111.
			if got := readKey(t, st, 5); got != 111 {
				t.Fatalf("key 5 = %d, want 111 (decided order b,a)", got)
			}
			if got := readKey(t, st, 9); got != 999 {
				t.Fatalf("key 9 = %d, want 999 (non-conflicting speculation lost)", got)
			}
		})
	}
}

// A speculated command whose value is never decided (a ghost) is
// withdrawn by the first conflicting decided command and leaves no
// trace in the state.
func TestNeverDecidedSpeculationRolledBack(t *testing.T) {
	x, st, _ := startKV(t, sched.KindIndex, 2, 64)
	ghost := req(7, 1, kvstore.CmdUpdate, kvstore.EncodeKeyValue(4, val(777)))
	x.Speculate([]*command.Request{ghost})
	real := req(8, 1, kvstore.CmdUpdate, kvstore.EncodeKeyValue(4, val(888)))
	x.Commit([]*command.Request{real})
	if got := readKey(t, st, 4); got != 888 {
		t.Fatalf("key 4 = %d, want 888 (ghost effect visible)", got)
	}
	c := x.Counters()
	if c.Rollbacks != 1 || c.RolledBack < 1 {
		t.Fatalf("counters = %+v, want one rollback withdrawing the ghost", c)
	}
}

// Transfers exercise multi-key speculation: conservation holds through
// hits and rollbacks, and the final balances equal the decided order's.
func TestTransferSpeculationConservesAndMatchesDecidedOrder(t *testing.T) {
	for _, kind := range []sched.SchedulerKind{sched.KindScan, sched.KindIndex} {
		t.Run(kind.String(), func(t *testing.T) {
			const keys = 16
			x, st, _ := startKV(t, kind, 4, keys)
			rng := rand.New(rand.NewSource(42))
			var ops []*command.Request
			for i := uint64(1); i <= 60; i++ {
				from, to := rng.Uint64()%keys, rng.Uint64()%keys
				ops = append(ops, req(1, i, kvstore.CmdTransfer,
					kvstore.EncodeTransfer(from, to, rng.Uint64()%5)))
			}
			// Speculate in a perturbed order: swap adjacent pairs.
			perturbed := append([]*command.Request(nil), ops...)
			for i := 0; i+1 < len(perturbed); i += 2 {
				perturbed[i], perturbed[i+1] = perturbed[i+1], perturbed[i]
			}
			x.Speculate(perturbed)
			x.Commit(ops)

			// Reference: decided order executed serially.
			ref := kvstore.New()
			ref.Preload(keys)
			for _, op := range ops {
				ref.Execute(op.Cmd, op.Input)
			}
			if st.Fingerprint() != ref.Fingerprint() {
				t.Fatalf("state diverged from decided order (rollbacks=%d)", x.Counters().Rollbacks)
			}
			if c := x.Counters(); c.Rollbacks == 0 {
				t.Fatalf("perturbed speculation produced no rollbacks: %+v", c)
			}
		})
	}
}

// Decided-stream retransmissions are answered from the confirmed cache
// and never re-executed.
func TestDecidedRetransmissionAnsweredOnce(t *testing.T) {
	x, st, net := startKV(t, sched.KindIndex, 2, 64)
	reply, err := net.Listen("cli")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	r := req(1, 1, kvstore.CmdTransfer, kvstore.EncodeTransfer(1, 2, 1))
	r.Reply = "cli"
	x.Speculate([]*command.Request{r})
	x.Commit([]*command.Request{r, r}) // decided twice (client retransmission)
	for i := 0; i < 2; i++ {
		select {
		case frame := <-reply.Recv():
			resp, err := command.DecodeResponse(frame)
			if err != nil || resp.Seq != 1 || resp.Output[0] != kvstore.OK {
				t.Fatalf("response %d: %v %+v", i, err, resp)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("missing response %d", i)
		}
	}
	// Executed once: 1 moved exactly once.
	if got := readKey(t, st, 1); got != 0 {
		t.Fatalf("key 1 = %d, want 0 (transfer executed %s)", got, "twice?")
	}
	c := x.Counters()
	if c.Decided() != 1 {
		t.Fatalf("counters = %+v, want 1 decided command", c)
	}
}

// The versioned netfs: speculation lands as uncommitted versions over
// the flat-path stores, rollback aborts just the tainted epochs, and
// the decided order's state matches a serial reference execution byte
// for byte.
func TestVersionedNetFS(t *testing.T) {
	svc := netfs.NewService()
	const t0 = int64(1_700_000_000_000_000_000)
	svc.FS().Mkdir("/d", 0o755, t0)
	compiled, err := cdep.Compile(netfs.Spec(), 4)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	net := transport.NewMemNetwork(1)
	t.Cleanup(func() { _ = net.Close() })
	x, err := StartExecutor(ExecutorConfig{
		Workers:   4,
		Service:   svc,
		Compiled:  compiled,
		Transport: net,
		Scheduler: sched.KindIndex,
	})
	if err != nil {
		t.Fatalf("StartExecutor: %v", err)
	}
	t.Cleanup(func() { _ = x.Close() })

	modeTime := func(mode uint32) []byte {
		buf := make([]byte, 12)
		binary.LittleEndian.PutUint32(buf, mode)
		binary.LittleEndian.PutUint64(buf[4:], uint64(t0))
		return buf
	}
	var ops []*command.Request
	for i := uint64(1); i <= 20; i++ {
		path := fmt.Sprintf("/d/f%d", i%5)
		cmd := netfs.CmdMknod
		input := netfs.EncodeInput(path, modeTime(0o644))
		if i%3 == 0 {
			cmd = netfs.CmdUnlink
			input = netfs.EncodeInput(path, binary.LittleEndian.AppendUint64(nil, uint64(t0)))
		}
		ops = append(ops, req(1, i, cmd, input))
	}
	perturbed := append([]*command.Request(nil), ops...)
	for i := 0; i+1 < len(perturbed); i += 2 {
		perturbed[i], perturbed[i+1] = perturbed[i+1], perturbed[i]
	}
	x.Speculate(perturbed)
	x.Commit(ops)

	ref := netfs.NewService()
	ref.FS().Mkdir("/d", 0o755, t0)
	for _, op := range ops {
		ref.Execute(op.Cmd, op.Input)
	}
	// The committed versions are the replica's authoritative state.
	if got, want := svc.FS().Fingerprint(), ref.FS().Fingerprint(); got != want {
		t.Fatalf("committed state %x != reference %x (rollbacks=%d)", got, want, x.Counters().Rollbacks)
	}
	if c := x.Counters(); c.Rollbacks == 0 {
		t.Fatalf("perturbed netfs speculation produced no rollbacks: %+v", c)
	}
}

// Randomized cross-engine determinism: a mixed workload (updates,
// transfers, snapshot reads, reads, occasional global inserts) with a
// perturbed optimistic order must land every engine and strategy on
// the decided order's exact state.
func TestRandomizedDeterminismAcrossEngines(t *testing.T) {
	const (
		keys = 24
		n    = 400
	)
	rng := rand.New(rand.NewSource(99))
	var ops []*command.Request
	for i := uint64(1); i <= n; i++ {
		k := rng.Uint64() % keys
		switch rng.Intn(10) {
		case 0, 1, 2:
			ops = append(ops, req(1, i, kvstore.CmdUpdate,
				kvstore.EncodeKeyValue(k, val(rng.Uint64()))))
		case 3, 4, 5:
			ops = append(ops, req(1, i, kvstore.CmdTransfer,
				kvstore.EncodeTransfer(k, rng.Uint64()%keys, rng.Uint64()%3)))
		case 6:
			ops = append(ops, req(1, i, kvstore.CmdMultiRead,
				kvstore.EncodeMultiRead(k, rng.Uint64()%keys)))
		case 7:
			ops = append(ops, req(1, i, kvstore.CmdInsert,
				kvstore.EncodeKeyValue(keys+i, val(i))))
		default:
			ops = append(ops, req(1, i, kvstore.CmdRead, kvstore.EncodeKey(k)))
		}
	}
	// Perturbation: rotate windows of 3.
	perturbed := append([]*command.Request(nil), ops...)
	for i := 0; i+2 < len(perturbed); i += 3 {
		perturbed[i], perturbed[i+1], perturbed[i+2] = perturbed[i+2], perturbed[i], perturbed[i+1]
	}

	ref := kvstore.New()
	ref.Preload(keys)
	for _, op := range ops {
		ref.Execute(op.Cmd, op.Input)
	}
	want := ref.Fingerprint()

	for _, kind := range []sched.SchedulerKind{sched.KindScan, sched.KindIndex} {
		t.Run(kind.String(), func(t *testing.T) {
			x, st, _ := startKV(t, kind, 4, keys)
			// Interleave speculation and commits the way a real replica
			// would: speculate ahead in chunks, commit behind.
			chunk := 25
			for off := 0; off < n; off += chunk {
				end := off + chunk
				if end > n {
					end = n
				}
				x.Speculate(perturbed[off:end])
				if off > 0 {
					x.Commit(ops[off-chunk : off])
				}
			}
			x.Commit(ops[n-chunk:])
			if got := st.Fingerprint(); got != want {
				t.Fatalf("fingerprint %x != reference %x (counters %+v)", got, want, x.Counters())
			}
			c := x.Counters()
			if c.Decided() != n {
				t.Fatalf("decided = %d, want %d", c.Decided(), n)
			}
		})
	}
}

// A ghost that conflicts with NOTHING decided is still withdrawn once
// enough decided commands pass it by: its uncommitted versions must
// not linger in the speculative state (they would otherwise shadow the
// committed tip for every later speculative read of those keys).
func TestGhostEvictedByAge(t *testing.T) {
	st := kvstore.New()
	st.Preload(64)
	compiled, err := cdep.Compile(kvstore.Spec(), 2)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	net := transport.NewMemNetwork(1)
	t.Cleanup(func() { _ = net.Close() })
	x, err := StartExecutor(ExecutorConfig{
		Workers:         2,
		Service:         st,
		Compiled:        compiled,
		Transport:       net,
		Scheduler:       sched.KindIndex,
		GhostEvictAfter: 8,
	})
	if err != nil {
		t.Fatalf("StartExecutor: %v", err)
	}
	t.Cleanup(func() { _ = x.Close() })

	// Ghost: speculated update on key 5, never decided, conflicting
	// with nothing that follows.
	x.Speculate([]*command.Request{req(99, 1, kvstore.CmdUpdate, kvstore.EncodeKeyValue(5, val(777)))})
	// Decide 20 commands on OTHER keys, one batch each (each Commit
	// runs an eviction pass).
	for i := uint64(1); i <= 20; i++ {
		x.Commit([]*command.Request{req(1, i, kvstore.CmdUpdate,
			kvstore.EncodeKeyValue(10+i%8, val(i)))})
	}
	if got := readKey(t, st, 5); got != 5 {
		t.Fatalf("key 5 = %d, want preloaded 5 (ghost effect lingers)", got)
	}
	c := x.Counters()
	if c.GhostEvictions != 1 {
		t.Fatalf("counters = %+v, want 1 ghost eviction", c)
	}
	// If the ghost's value IS decided later after all, it re-executes
	// as a miss — eviction never costs correctness.
	x.Commit([]*command.Request{req(99, 1, kvstore.CmdUpdate, kvstore.EncodeKeyValue(5, val(777)))})
	if got := readKey(t, st, 5); got != 777 {
		t.Fatalf("key 5 = %d, want 777 after late decide", got)
	}
}

// A never-decided MULTI-KEY ghost (a transfer touching two keys) must
// leave zero uncommitted versions behind once evicted: the eviction
// aborts the ghost's epoch, which drops its version on every key it
// touched atomically. Regression for the versioned-store refactor —
// a partial drop would leave one key's chain shadowing the committed
// tip forever.
func TestGhostEvictionDropsAllVersions(t *testing.T) {
	st := kvstore.New()
	st.Preload(64)
	compiled, err := cdep.Compile(kvstore.Spec(), 2)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	net := transport.NewMemNetwork(1)
	t.Cleanup(func() { _ = net.Close() })
	x, err := StartExecutor(ExecutorConfig{
		Workers:         2,
		Service:         st,
		Compiled:        compiled,
		Transport:       net,
		Scheduler:       sched.KindIndex,
		GhostEvictAfter: 8,
	})
	if err != nil {
		t.Fatalf("StartExecutor: %v", err)
	}
	t.Cleanup(func() { _ = x.Close() })

	// Multi-key ghosts: transfers between keys 5 and 6, never decided.
	x.Speculate([]*command.Request{
		req(99, 1, kvstore.CmdTransfer, kvstore.EncodeTransfer(5, 6, 2)),
		req(99, 2, kvstore.CmdTransfer, kvstore.EncodeTransfer(6, 5, 1)),
	})
	x.waitDrained()
	if st.Uncommitted() == 0 {
		t.Fatal("speculated transfers left no uncommitted versions (test is vacuous)")
	}
	// Age the ghosts out with decided traffic on disjoint keys.
	for i := uint64(1); i <= 20; i++ {
		x.Commit([]*command.Request{req(1, i, kvstore.CmdUpdate,
			kvstore.EncodeKeyValue(20+i%8, val(i)))})
	}
	c := x.Counters()
	if c.GhostEvictions != 2 {
		t.Fatalf("counters = %+v, want 2 ghost evictions", c)
	}
	if n := st.Uncommitted(); n != 0 {
		t.Fatalf("%d uncommitted versions survive the eviction (ghost versions leak)", n)
	}
	if got := readKey(t, st, 5); got != 5 {
		t.Fatalf("key 5 = %d, want preloaded 5", got)
	}
	if got := readKey(t, st, 6); got != 6 {
		t.Fatalf("key 6 = %d, want preloaded 6", got)
	}
}

// ConfirmedSnapshot must capture ONLY order-confirmed state: an
// unconfirmed speculation's effects are uncommitted versions the
// snapshot never reads — the speculation window survives intact and
// still confirms as hits.
func TestConfirmedSnapshotExcludesSpeculation(t *testing.T) {
	x, st, _ := startKV(t, sched.KindIndex, 2, 16)

	confirmed := []*command.Request{req(1, 1, kvstore.CmdUpdate, kvstore.EncodeKeyValue(1, val(100)))}
	x.Speculate(confirmed)
	x.Commit(confirmed)
	want := st.Fingerprint()

	// Unconfirmed speculation mutates the in-place state...
	spec := []*command.Request{
		req(1, 2, kvstore.CmdUpdate, kvstore.EncodeKeyValue(2, val(222))),
		req(1, 3, kvstore.CmdTransfer, kvstore.EncodeTransfer(3, 4, 1)),
	}
	x.Speculate(spec)
	x.waitDrained()

	// ...but the snapshot must equal the confirmed-only state.
	snap, ok := x.ConfirmedSnapshot()
	if !ok {
		t.Fatal("ConfirmedSnapshot unavailable")
	}
	probe := kvstore.New()
	if err := probe.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if got := probe.Fingerprint(); got != want {
		t.Fatalf("snapshot fingerprint %x != confirmed state %x (speculation leaked into the checkpoint)", got, want)
	}

	// The window survived: the speculations confirm as hits.
	x.Commit(spec)
	c := x.Counters()
	if c.Hits != 3 || c.Rollbacks != 0 {
		t.Fatalf("counters = %+v, want 3 hits after a mid-window snapshot", c)
	}
	if got := readKey(t, st, 2); got != 222 {
		t.Fatalf("key 2 = %d, want 222 (speculative effects lost by the snapshot quiesce)", got)
	}
}

// ConfirmedSnapshot on netfs reads committed versions only, with
// speculation in flight.
func TestConfirmedSnapshotNetFS(t *testing.T) {
	svc := netfs.NewService()
	compiled, err := cdep.Compile(netfs.Spec(), 2)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	net := transport.NewMemNetwork(1)
	t.Cleanup(func() { _ = net.Close() })
	x, err := StartExecutor(ExecutorConfig{
		Workers: 2, Service: svc, Compiled: compiled, Transport: net,
		Scheduler: sched.KindIndex,
	})
	if err != nil {
		t.Fatalf("StartExecutor: %v", err)
	}
	t.Cleanup(func() { _ = x.Close() })

	mk := req(1, 1, netfs.CmdMkdir, netfs.EncodeInput("/d", binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint32(nil, 0o755), 42)))
	x.Speculate([]*command.Request{mk})
	x.waitDrained()
	// Unconfirmed: the committed copy (and thus the snapshot) must not
	// hold /d yet.
	snap, ok := x.ConfirmedSnapshot()
	if !ok {
		t.Fatal("ConfirmedSnapshot unavailable")
	}
	probe := netfs.NewFS()
	if err := probe.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if probe.Access("/d") == netfs.OK {
		t.Fatal("unconfirmed speculative mkdir leaked into the snapshot")
	}
	x.Commit([]*command.Request{mk})
	snap, _ = x.ConfirmedSnapshot()
	if err := probe.Restore(snap); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if probe.Access("/d") != netfs.OK {
		t.Fatal("confirmed mkdir missing from the snapshot")
	}
}

// The key-indexed window keeps reconciliation cost proportional to a
// decided command's OWN conflicts: with a large unconfirmed ghost
// backlog on disjoint keys, confirming unrelated commands must not
// scan the backlog (the old check was O(window) per decided command).
func TestKeyIndexSkipsUnrelatedBacklog(t *testing.T) {
	x, st, _ := startKV(t, sched.KindIndex, 2, 4096)
	// 1000 unconfirmed ghosts on keys 1000..1999.
	var ghosts []*command.Request
	for i := uint64(0); i < 1000; i++ {
		ghosts = append(ghosts, req(9, i+1, kvstore.CmdUpdate, kvstore.EncodeKeyValue(1000+i, val(i))))
	}
	x.Speculate(ghosts)
	x.waitDrained()

	// Confirm 500 commands on disjoint keys; each mismatch check must
	// touch only its own (empty) bucket.
	var live []*command.Request
	for i := uint64(0); i < 500; i++ {
		live = append(live, req(1, i+1, kvstore.CmdUpdate, kvstore.EncodeKeyValue(i%100, val(i))))
	}
	x.Speculate(live)
	start := time.Now()
	x.Commit(live)
	elapsed := time.Since(start)
	c := x.Counters()
	if c.Hits != 500 || c.Rollbacks != 0 {
		t.Fatalf("counters = %+v, want 500 hits, 0 rollbacks", c)
	}
	// Functional guard, not a benchmark: 500 confirmations against a
	// 1000-entry unrelated backlog finish quickly; the old O(window)
	// walk did 500k conflict checks here.
	if elapsed > 5*time.Second {
		t.Fatalf("500 confirmations took %v against an unrelated backlog", elapsed)
	}
	// A decided command that DOES conflict with a ghost still rolls it
	// back through the index.
	conflicting := req(2, 1, kvstore.CmdUpdate, kvstore.EncodeKeyValue(1000, val(7)))
	x.Commit([]*command.Request{conflicting})
	c = x.Counters()
	if c.Rollbacks != 1 {
		t.Fatalf("conflicting decided command did not roll the ghost back: %+v", c)
	}
	if got := readKey(t, st, 1000); got != 7 {
		t.Fatalf("key 1000 = %d, want 7", got)
	}
}

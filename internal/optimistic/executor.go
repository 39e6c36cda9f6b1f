package optimistic

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/psmr/psmr/internal/bench"
	"github.com/psmr/psmr/internal/cdep"
	"github.com/psmr/psmr/internal/command"
	"github.com/psmr/psmr/internal/dedup"
	"github.com/psmr/psmr/internal/mvstore"
	"github.com/psmr/psmr/internal/obs"
	"github.com/psmr/psmr/internal/sched"
	"github.com/psmr/psmr/internal/transport"
)

// ExecutorConfig configures a speculative executor.
type ExecutorConfig struct {
	// Workers is the execution pool size.
	Workers int
	// Service must implement command.Versioned: every execution —
	// speculative or decided-path — runs at a speculation epoch whose
	// writes land as uncommitted versions; order-confirmation commits
	// the epoch and a rollback aborts it, in O(keys touched).
	Service command.Service
	// Compiled answers conflict queries (from the service's C-Dep).
	Compiled *cdep.Compiled
	// Transport sends client responses (at confirmation time only).
	Transport transport.Transport
	// Scheduler selects the engine speculation is scheduled through.
	Scheduler sched.SchedulerKind
	// Tuning carries the engine pipeline knobs.
	Tuning sched.Tuning
	// QueueBound sizes the scan engine's hand-off channel.
	QueueBound int
	// DedupWindow bounds the per-client confirmed-output cache.
	// Default 512.
	DedupWindow int
	// MaxSpeculations bounds the unconfirmed speculation window.
	// Default 65536.
	MaxSpeculations int
	// GhostEvictAfter withdraws an unconfirmed speculation once this
	// many decided commands have been reconciled since it was admitted
	// — it was optimistically delivered but never decided (a preempted
	// leader's proposal), and its uncommitted versions would otherwise
	// shadow the committed state for every later speculative read.
	// Eviction is always SAFE (a prematurely evicted speculation simply
	// re-executes as a miss when its decision does arrive), so the
	// bound only trades hit rate against how long a ghost's effects may
	// stay visible to speculation. Default 4096.
	GhostEvictAfter int
	// CPU optionally meters the executor's roles.
	CPU *bench.CPUMeter
	// Trace optionally stamps sampled commands at the
	// confirmation/rollback stage boundaries (and, through the engine,
	// at admission and execution).
	Trace *obs.Tracer
	// Journal optionally records rollback/ghost-eviction events in the
	// flight recorder.
	Journal *obs.Journal
}

// requestID identifies a command invocation.
type requestID struct{ client, seq uint64 }

// entry is one command in the speculation pipeline: admitted to the
// engine, executed (recorded in the speculation log), and eventually
// confirmed by the decided stream or rolled back. Conflict metadata
// (class, canonical key set) is computed ONCE at admission: the
// reconciler compares each decided command against the whole
// speculation window, so per-comparison key extraction would dominate
// the reconcile path.
type entry struct {
	req       *command.Request // original request (Reply intact)
	engineReq *command.Request // Reply-stripped copy admitted to the engine
	output    []byte
	epoch     mvstore.Epoch // speculation epoch its writes landed under
	committed bool          // admitted from the decided stream (miss path)
	executed  bool
	confirmed bool
	done      chan struct{} // closed once executed

	global bool     // compiled class Global: conflicts with everything
	keys   []uint64 // canonical key set (nil when keysOK is false)
	keysOK bool     // key set determinable (false → conservative)

	// logPos is the entry's position in execution-completion order
	// (assigned when the entry is appended to the log); withdrawn marks
	// entries a rollback or ghost eviction removed from the window.
	// Together they let the key index answer "does an unconfirmed
	// conflicting entry precede e?" without scanning the log.
	logPos    uint64
	withdrawn bool

	// admittedAt is the reconciled-decided-command count at admission;
	// an unconfirmed entry left behind by more than GhostEvictAfter
	// decided commands is a ghost and gets withdrawn.
	admittedAt uint64
}

// Executor speculates commands through a sched engine and reconciles
// them against the decided order. Speculate and Commit MUST be called
// from one goroutine (the replica's driver): the engine's admission
// contract and every log-order invariant assume a single serial
// admission stream.
type Executor struct {
	cfg    ExecutorConfig
	engine sched.Engine
	ver    command.Versioned // the service, epoch-addressed

	mu        sync.Mutex
	cond      *sync.Cond // signalled on every hook completion
	admitted  int64      // engine admissions
	executed  int64      // hook completions (drain: executed == admitted)
	epochSeq  mvstore.Epoch
	log       []*entry // execution-completion order
	logSeq    uint64   // next logPos to assign
	doneInLog int      // confirmed entries still in log (compaction)
	byID      map[requestID]*entry

	// Key-indexed speculation window: executed-but-unconfirmed entries
	// bucketed by canonical key, plus the "wild" list of entries that
	// conflict regardless of keys (Global class or undeterminable key
	// set). The reconciler's per-decided-command mismatch check scans
	// only the decided command's own key buckets (plus wild) instead of
	// the whole window — O(conflicting entries) instead of O(window),
	// which is what keeps reconciliation linear during recovery from a
	// large ghost backlog. Buckets are pruned lazily (confirmed and
	// withdrawn entries drop out as they are encountered).
	byKey        map[uint64][]*entry
	wild         []*entry
	confirmed    *dedup.Table // confirmed outputs (decided retransmissions)
	decidedCount uint64       // reconciled decided commands (ghost aging)
	lastEvictChk uint64       // decidedCount at the last ghost scan
	closed       bool

	reconCPU *bench.RoleMeter

	speculated   atomic.Uint64
	hits         atomic.Uint64
	misses       atomic.Uint64
	rollbacks    atomic.Uint64
	rolledBack   atomic.Uint64
	maxDepth     atomic.Uint64
	ghostEvicted atomic.Uint64
}

// Counters is a snapshot of the executor's speculation statistics.
type Counters struct {
	// Speculated counts commands admitted from the optimistic stream.
	Speculated uint64
	// Hits counts decided commands confirmed straight from their
	// speculative execution (reply released without executing on the
	// decided path).
	Hits uint64
	// Misses counts decided commands that had to execute on the
	// decided path: never speculated, or withdrawn by a rollback.
	Misses uint64
	// Rollbacks counts rollback events (decided/optimistic order
	// mismatches on conflicting commands).
	Rollbacks uint64
	// RolledBack counts speculative executions withdrawn across all
	// rollbacks (the summed rollback depth).
	RolledBack uint64
	// MaxRollbackDepth is the largest single rollback.
	MaxRollbackDepth uint64
	// GhostEvictions counts speculations withdrawn by age — values
	// that were optimistically delivered but never decided (a
	// preempted leader's proposals) and conflicted with nothing that
	// would have rolled them back sooner.
	GhostEvictions uint64
}

// Add folds another snapshot into c (aggregation across replicas):
// counts sum, MaxRollbackDepth takes the maximum.
func (c *Counters) Add(o Counters) {
	c.Speculated += o.Speculated
	c.Hits += o.Hits
	c.Misses += o.Misses
	c.Rollbacks += o.Rollbacks
	c.RolledBack += o.RolledBack
	c.GhostEvictions += o.GhostEvictions
	if o.MaxRollbackDepth > c.MaxRollbackDepth {
		c.MaxRollbackDepth = o.MaxRollbackDepth
	}
}

// Decided returns the number of reconciled decided commands.
func (c Counters) Decided() uint64 { return c.Hits + c.Misses }

// HitRate returns the fraction of decided commands served from
// speculation.
func (c Counters) HitRate() float64 {
	if c.Decided() == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Decided())
}

func (c Counters) String() string {
	return fmt.Sprintf("hit-rate %.1f%% (%d/%d), rollbacks %d (depth sum %d, max %d), ghosts evicted %d",
		100*c.HitRate(), c.Hits, c.Decided(), c.Rollbacks, c.RolledBack, c.MaxRollbackDepth, c.GhostEvictions)
}

// StartExecutor launches the engine and the speculation bookkeeping.
func StartExecutor(cfg ExecutorConfig) (*Executor, error) {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.DedupWindow <= 0 {
		cfg.DedupWindow = 512
	}
	if cfg.MaxSpeculations <= 0 {
		cfg.MaxSpeculations = 1 << 16
	}
	if cfg.GhostEvictAfter <= 0 {
		cfg.GhostEvictAfter = 4096
	}
	if cfg.Compiled == nil {
		return nil, fmt.Errorf("optimistic: Compiled is required")
	}
	x := &Executor{
		cfg:       cfg,
		epochSeq:  mvstore.Committed + 1, // 0 is the committed epoch, never assigned
		byID:      make(map[requestID]*entry),
		byKey:     make(map[uint64][]*entry),
		confirmed: dedup.NewTable(cfg.DedupWindow),
		reconCPU:  cfg.CPU.Role("scheduler"),
	}
	x.cond = sync.NewCond(&x.mu)
	ver, ok := cfg.Service.(command.Versioned)
	if !ok {
		return nil, fmt.Errorf("optimistic: service %T does not implement command.Versioned", cfg.Service)
	}
	x.ver = ver
	engine, err := sched.StartEngine(sched.Config{
		Kind:       cfg.Scheduler,
		Workers:    cfg.Workers,
		Exec:       x.execute,
		Compiled:   cfg.Compiled,
		Transport:  cfg.Transport,
		QueueBound: cfg.QueueBound,
		CPU:        cfg.CPU,
		Trace:      cfg.Trace,
		Journal:    cfg.Journal,
		Tuning:     cfg.Tuning,
	})
	if err != nil {
		return nil, fmt.Errorf("optimistic: start engine: %w", err)
	}
	x.engine = engine
	return x, nil
}

// Close stops the engine. The caller must have stopped feeding
// Speculate/Commit first (the replica closes its learner before this).
func (x *Executor) Close() error {
	x.mu.Lock()
	x.closed = true
	x.cond.Broadcast()
	x.mu.Unlock()
	return x.engine.Close()
}

// Counters returns a snapshot of the speculation statistics.
func (x *Executor) Counters() Counters {
	return Counters{
		Speculated:       x.speculated.Load(),
		Hits:             x.hits.Load(),
		Misses:           x.misses.Load(),
		Rollbacks:        x.rollbacks.Load(),
		RolledBack:       x.rolledBack.Load(),
		MaxRollbackDepth: x.maxDepth.Load(),
		GhostEvictions:   x.ghostEvicted.Load(),
	}
}

// Speculate admits one optimistically delivered batch for speculative
// execution. Duplicates (already speculated or already confirmed) are
// dropped; admission stops while the unconfirmed window is full.
func (x *Executor) Speculate(reqs []*command.Request) {
	var admit []*command.Request
	x.mu.Lock()
	for _, req := range reqs {
		id := requestID{client: req.Client, seq: req.Seq}
		if _, dup := x.byID[id]; dup {
			continue
		}
		if _, dup := x.confirmed.Lookup(req.Client, req.Seq); dup {
			continue
		}
		if len(x.byID) >= x.cfg.MaxSpeculations {
			// Window full (e.g. ghost speculations after repeated
			// fail-overs): degrade to decided-path execution rather
			// than grow without bound.
			break
		}
		e := x.newEntry(req, false)
		x.byID[id] = e
		x.admitted++
		admit = append(admit, e.engineReq)
	}
	x.mu.Unlock()
	if len(admit) == 0 {
		return
	}
	x.speculated.Add(uint64(len(admit)))
	x.engine.SubmitBatch(admit)
}

// Commit reconciles one decided batch, in final order. It blocks until
// every command in the batch has been confirmed and answered.
//
// Commands the batch decides that were never speculated (misses) are
// admitted through the engine in ONE batch up front, so independent
// misses execute in parallel across the worker pool while the
// confirmation walk below proceeds in decided order — without this the
// decided path would execute one command per driver round-trip.
func (x *Executor) Commit(reqs []*command.Request) {
	var admit []*command.Request
	x.mu.Lock()
	for _, req := range reqs {
		id := requestID{client: req.Client, seq: req.Seq}
		if _, dup := x.byID[id]; dup {
			continue
		}
		if _, dup := x.confirmed.Lookup(req.Client, req.Seq); dup {
			continue
		}
		e := x.newEntry(req, true)
		x.byID[id] = e
		x.admitted++
		admit = append(admit, e.engineReq)
	}
	x.mu.Unlock()
	if len(admit) > 0 && !x.engine.SubmitBatch(admit) {
		return // engine stopping; the replica is shutting down
	}
	for _, req := range reqs {
		x.commitOne(req)
	}
	x.mu.Lock()
	x.evictGhostsLocked()
	x.mu.Unlock()
}

func (x *Executor) newEntry(req *command.Request, committed bool) *entry {
	stripped := *req
	stripped.Reply = "" // the engine must never answer a speculation
	e := &entry{
		req:       req,
		engineReq: &stripped,
		committed: committed,
		done:      make(chan struct{}),
	}
	e.global = x.cfg.Compiled.Class(req.Cmd) == cdep.Global
	if !e.global {
		e.keys, e.keysOK = x.cfg.Compiled.KeySet(req.Cmd, req.Input)
	}
	// Caller holds x.mu. Every entry — speculative or decided-path —
	// executes at its own fresh epoch, so confirmation commits exactly
	// its writes and withdrawal aborts exactly its writes.
	e.epoch = x.epochSeq
	x.epochSeq++
	e.admittedAt = x.decidedCount
	return e
}

// execute is the engine's execution hook: it runs one admitted command
// against the speculative state and appends the completion to the
// speculation log. The engine guarantees conflicting commands are
// never concurrent and execute in admission order, so the log's
// conflicting-pair order equals admission order.
func (x *Executor) execute(req *command.Request) []byte {
	x.mu.Lock()
	e := x.byID[requestID{client: req.Client, seq: req.Seq}]
	x.mu.Unlock()
	out := x.ver.SpeculateAt(e.epoch, req.Cmd, req.Input)
	x.mu.Lock()
	e.output = out
	e.executed = true
	e.logPos = x.logSeq
	x.logSeq++
	x.log = append(x.log, e)
	// Key index: wild entries (Global class or undeterminable key set)
	// conflict with everything; the rest bucket under each touched key.
	if e.global || !e.keysOK {
		x.wild = append(x.wild, e)
	} else {
		for _, k := range e.keys {
			x.byKey[k] = append(x.byKey[k], e)
		}
	}
	x.executed++
	x.cond.Broadcast()
	x.mu.Unlock()
	close(e.done)
	return out
}

// pruneScan drops dead (confirmed or withdrawn) entries from a bucket
// in place and reports whether a live entry precedes e in execution
// order and passes match (nil = always conflicts).
func pruneScan(bucket *[]*entry, e *entry, match func(*entry) bool) bool {
	kept := (*bucket)[:0]
	found := false
	for _, o := range *bucket {
		if o.confirmed || o.withdrawn {
			continue
		}
		kept = append(kept, o)
		if !found && e != nil && o != e && o.logPos < e.logPos && (match == nil || match(o)) {
			found = true
		}
	}
	for i := len(kept); i < len(*bucket); i++ {
		(*bucket)[i] = nil
	}
	*bucket = kept
	return found
}

// conflictingPredecessorLocked is the reconciler's mismatch check:
// does an UNCONFIRMED entry precede e in the speculation log and
// conflict with it? It reads the key index — e's own key buckets plus
// the wild list — so the cost is O(entries actually conflicting with
// e), not O(unconfirmed window); a large ghost backlog (recovery, a
// preempted leader's stream) no longer makes every decided command pay
// a full-window scan. Called with x.mu held.
func (x *Executor) conflictingPredecessorLocked(e *entry) bool {
	// Wild entries conflict with everything, e included.
	if pruneScan(&x.wild, e, nil) {
		return true
	}
	if e.global || !e.keysOK {
		// e conflicts with everything: any unconfirmed predecessor
		// counts. The log front scan is bounded by the compaction
		// window (confirmed entries are dropped every 256 confirms).
		for _, o := range x.log {
			if o.logPos >= e.logPos {
				break
			}
			if !o.confirmed {
				return true
			}
		}
		return false
	}
	found := false
	for _, k := range e.keys {
		bucket := x.byKey[k]
		if len(bucket) == 0 {
			continue
		}
		// Every bucket member shares key k with e, so a declared
		// dependency between the command types is a conflict (same-key
		// or not).
		if pruneScan(&bucket, e, func(o *entry) bool {
			dep, _ := x.cfg.Compiled.Dep(o.req.Cmd, e.req.Cmd)
			return dep
		}) {
			found = true
		}
		if len(bucket) == 0 {
			delete(x.byKey, k)
		} else {
			x.byKey[k] = bucket
		}
		if found {
			return true
		}
	}
	return false
}

// commitOne reconciles one decided command (see the package doc's
// HIT/MISS/MISMATCH taxonomy).
func (x *Executor) commitOne(req *command.Request) {
	id := requestID{client: req.Client, seq: req.Seq}
	x.mu.Lock()
	if out, dup := x.confirmed.Lookup(req.Client, req.Seq); dup {
		// Decided-stream retransmission of an already-confirmed
		// command: answer from the cache (at-most-once).
		x.mu.Unlock()
		x.respond(req, out)
		return
	}
	e, speculated := x.byID[id]
	if !speculated {
		// MISS: never speculated. Admit through the engine so it
		// serializes behind every conflicting speculation already
		// admitted — executing it here directly would race a
		// conflicting speculative execution in flight on a worker.
		e = x.newEntry(req, true)
		x.byID[id] = e
		x.admitted++
	}
	closed := x.closed
	x.mu.Unlock()
	if !speculated {
		if !x.engine.SubmitBatch([]*command.Request{e.engineReq}) {
			return // engine stopping; the replica is shutting down
		}
	}
	if closed {
		return
	}
	<-e.done

	t0 := time.Now()
	x.mu.Lock()
	// MISMATCH check: an unconfirmed log entry BEFORE e that conflicts
	// with it executed ahead of e, but the decided order wants e first.
	// The log is complete for this check without draining: the engine
	// executes conflicting commands in admission order, so every
	// conflicting command admitted before e has already executed (and
	// been logged) by the time e's execution completed. The check runs
	// off the key index (e's buckets + the wild list), so its cost
	// scales with e's actual conflicts, not the window size.
	mismatch := x.conflictingPredecessorLocked(e)
	if !mismatch {
		x.confirmLocked(e)
		x.mu.Unlock()
		x.cfg.Trace.StampID(obs.StageConfirm, e.req.Client, e.req.Seq)
		x.respond(e.req, e.output)
		if e.committed {
			x.misses.Add(1)
		} else {
			x.hits.Add(1)
		}
		x.reconCPU.Add(time.Since(t0))
		return
	}
	x.rollbackLocked(e, req)
	x.mu.Unlock()
	x.reconCPU.Add(time.Since(t0))
}

// rollbackLocked withdraws the minimal conflicting suffix and
// re-executes the decided command in final order. Called with x.mu
// held; e is the decided command's (mis-ordered) speculative entry.
func (x *Executor) rollbackLocked(e *entry, req *command.Request) {
	// Drain the engine: every admitted command must have executed
	// before epochs are aborted, or an in-flight speculative execution
	// could observe a half-withdrawn prefix. No new admissions can
	// arrive — the driver goroutine is right here.
	for x.executed < x.admitted && !x.closed {
		x.cond.Wait()
	}
	if x.closed {
		return
	}

	// Tainted set: e itself, every unconfirmed entry before e
	// conflicting with e, closed transitively forward over entries
	// conflicting with an already-tainted one (they observed tainted
	// state). Entries after e conflicting only with e's REDONE state
	// are picked up by the same closure through e.
	posE := -1
	for i, o := range x.log {
		if o == e {
			posE = i
			break
		}
	}
	var tainted []*entry
	taintedSet := make(map[*entry]bool)
	for i, o := range x.log {
		if o.confirmed {
			continue
		}
		t := false
		switch {
		case o == e:
			t = true
		case i < posE && x.conflicts(o, e):
			t = true
		default:
			for _, d := range tainted {
				if x.conflicts(o, d) {
					t = true
					break
				}
			}
		}
		if t {
			tainted = append(tainted, o)
			taintedSet[o] = true
		}
	}

	x.withdrawLocked(tainted, taintedSet)

	// Re-execute e in final order — at the committed epoch, on a
	// drained engine, so its writes apply directly — and confirm it.
	out := x.ver.Execute(req.Cmd, req.Input)
	e.output = out
	e.confirmed = true
	delete(x.byID, requestID{client: req.Client, seq: req.Seq})
	x.confirmed.Record(req.Client, req.Seq, out)
	x.decidedCount++

	depth := uint64(len(tainted))
	x.rollbacks.Add(1)
	x.rolledBack.Add(depth)
	x.cfg.Journal.Emit(obs.EvRollback, uint64(x.decidedCount), depth)
	for {
		max := x.maxDepth.Load()
		if depth <= max || x.maxDepth.CompareAndSwap(max, depth) {
			break
		}
	}
	x.misses.Add(1)
	x.cfg.Trace.StampID(obs.StageRollback, e.req.Client, e.req.Seq)
	x.cfg.Trace.StampID(obs.StageConfirm, e.req.Client, e.req.Seq)
	x.respond(e.req, out)
}

// withdrawLocked removes a tainted suffix from the speculative state by
// aborting each tainted entry's epoch, newest-first — each abort drops
// only that epoch's uncommitted versions, O(keys the command touched),
// and peeling from the newest end keeps every abort at its chains'
// tops. Surviving speculations' versions are untouched (they conflict
// with nothing tainted, so they share no chains). Called with x.mu held
// and the engine drained. Withdrawn entries re-execute when (if) their
// own decisions arrive.
func (x *Executor) withdrawLocked(tainted []*entry, taintedSet map[*entry]bool) {
	for i := len(tainted) - 1; i >= 0; i-- {
		x.ver.Abort(tainted[i].epoch)
	}
	kept := x.log[:0]
	for _, o := range x.log {
		if taintedSet[o] {
			// withdrawn flags the entry dead for the key index's lazy
			// pruning (a re-decided withdrawal re-executes as a NEW
			// entry with its own log position).
			o.withdrawn = true
			delete(x.byID, requestID{client: o.req.Client, seq: o.req.Seq})
			continue
		}
		kept = append(kept, o)
	}
	for i := len(kept); i < len(x.log); i++ {
		x.log[i] = nil
	}
	x.log = kept
}

// evictGhostsLocked withdraws unconfirmed speculations that the
// decided stream has left behind by more than GhostEvictAfter
// commands: they were optimistically delivered but never decided, and
// since they conflict with nothing decided (a conflicting decided
// command would have rolled them back already), nothing else would
// ever withdraw their effects from the speculative state. The closure
// over later conflicting speculations keeps the withdrawal consistent,
// exactly like a rollback. Called with x.mu held; cheap unless the
// quick age scan finds a ghost.
func (x *Executor) evictGhostsLocked() {
	horizon := uint64(x.cfg.GhostEvictAfter)
	cadence := uint64(256)
	if h := horizon / 2; h > 0 && h < cadence {
		cadence = h
	}
	if x.decidedCount-x.lastEvictChk < cadence {
		return
	}
	x.lastEvictChk = x.decidedCount
	if x.decidedCount < horizon {
		return
	}
	evictBefore := x.decidedCount - horizon
	// Age scan over the whole unconfirmed window (byID, not just the
	// log): a ghost still queued in the engine has not executed yet
	// and would be invisible to a log-only scan — the drain below
	// flushes it into the log before the closure is computed.
	stale := false
	for _, o := range x.byID {
		if !o.confirmed && o.admittedAt < evictBefore {
			stale = true
			break
		}
	}
	if !stale {
		return
	}
	// Drain so no in-flight speculative execution observes a
	// half-withdrawn prefix; the driver goroutine is the caller, so no
	// new admissions can arrive.
	for x.executed < x.admitted && !x.closed {
		x.cond.Wait()
	}
	if x.closed {
		return
	}
	var tainted []*entry
	taintedSet := make(map[*entry]bool)
	for _, o := range x.log {
		if o.confirmed {
			continue
		}
		t := o.admittedAt < evictBefore
		if !t {
			for _, d := range tainted {
				if x.conflicts(o, d) {
					t = true
					break
				}
			}
		}
		if t {
			tainted = append(tainted, o)
			taintedSet[o] = true
		}
	}
	x.withdrawLocked(tainted, taintedSet)
	x.ghostEvicted.Add(uint64(len(tainted)))
	if len(tainted) > 0 {
		x.cfg.Journal.Emit(obs.EvGhostEvict, uint64(len(tainted)), 0)
	}
}

// ConfirmedSnapshot serializes the ORDER-CONFIRMED service state — the
// exact state a non-speculative replica would hold after the decided
// prefix reconciled so far — so that a ghost (an optimistically
// delivered, never-decided value) can never leak into a checkpoint.
// The caller must be the replica's driver goroutine, between decided
// batches (every miss-path admission is then confirmed).
//
// With versioned state this needs no quiesce at all: speculative
// writes live as uncommitted versions, the service's Snapshot reads
// only committed versions, and only the driver — the goroutine right
// here — ever commits an epoch. In-flight speculations keep executing
// through the snapshot and the speculation window survives it intact.
//
// ok is false when the service is no command.Snapshotter or the
// executor is shutting down.
func (x *Executor) ConfirmedSnapshot() ([]byte, bool) {
	snap, isSnap := x.cfg.Service.(command.Snapshotter)
	if !isSnap {
		return nil, false
	}
	x.mu.Lock()
	closed := x.closed
	x.mu.Unlock()
	if closed {
		return nil, false
	}
	return snap.Snapshot(), true
}

// confirmLocked marks an executed entry order-confirmed: it leaves the
// speculation window and its output becomes the at-most-once record.
func (x *Executor) confirmLocked(e *entry) {
	// Promote the entry's uncommitted versions into the committed
	// state. Safe under x.mu with workers in flight: conflicting
	// commands are engine-serialized, so nothing concurrently touches
	// e's chains, and the mismatch check just established that every
	// conflicting predecessor has been resolved — e's versions sit at
	// the bottom of their chains.
	x.ver.Commit(e.epoch)
	e.confirmed = true
	delete(x.byID, requestID{client: e.req.Client, seq: e.req.Seq})
	x.confirmed.Record(e.req.Client, e.req.Seq, e.output)
	x.decidedCount++
	x.doneInLog++
	if x.doneInLog >= 256 {
		// Compact: drop confirmed entries from the log (order among the
		// survivors is preserved, which is all the invariants need).
		kept := x.log[:0]
		for _, o := range x.log {
			if o.confirmed {
				continue
			}
			kept = append(kept, o)
		}
		for i := len(kept); i < len(x.log); i++ {
			x.log[i] = nil
		}
		x.log = kept
		x.doneInLog = 0
		// Sweep the key index too: lazy pruning only reaps buckets the
		// reconciler touches, so cold keys would otherwise pin their
		// dead entries forever.
		for k, bucket := range x.byKey {
			pruneScan(&bucket, nil, nil)
			if len(bucket) == 0 {
				delete(x.byKey, k)
			} else {
				x.byKey[k] = bucket
			}
		}
		pruneScan(&x.wild, nil, nil)
	}
}

// conflicts reports whether two admitted invocations depend on each
// other under the service's C-Dep, treating Global classes as
// conflicting with everything (the engines serialize them as barriers
// even without a declared dependency). It works entirely off the
// metadata cached at admission — a dep-map lookup plus a sorted-set
// intersection — because the reconciler runs it once per (decided
// command, window entry) pair. The relation is a subset of what the
// engine serializes, which is what makes the speculation log's
// conflicting-pair order trustworthy.
func (x *Executor) conflicts(a, b *entry) bool {
	if a.global || b.global {
		return true
	}
	dep, sameKey := x.cfg.Compiled.Dep(a.req.Cmd, b.req.Cmd)
	if !dep {
		return false
	}
	if !sameKey {
		return true
	}
	if !a.keysOK || !b.keysOK {
		// Undeterminable key set: conservatively conflicting (the
		// engines serialize such invocations as barriers).
		return true
	}
	i, j := 0, 0
	for i < len(a.keys) && j < len(b.keys) {
		switch {
		case a.keys[i] == b.keys[j]:
			return true
		case a.keys[i] < b.keys[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// respond sends a confirmed command's response to the client proxy
// (the shared engine helper, so the wire format cannot drift).
func (x *Executor) respond(req *command.Request, output []byte) {
	sched.Respond(x.cfg.Transport, req, output)
}

// Package optimistic implements optimistic parallel state-machine
// replication (Marandi & Pedone, "Optimistic Parallel State-Machine
// Replication"): replicas execute commands SPECULATIVELY on the
// coordinators' optimistic (pre-consensus) stream and reconcile when
// the decided order arrives, hiding ordering latency behind execution
// in the common case where both orders agree.
//
// The subsystem is layered over the existing machinery:
//
//   - paxos.Coordinator (Optimistic: true) pushes every proposal to the
//     learners BEFORE phase 2 runs on it; paxos.Learner retains that
//     best-effort stream next to the decided log.
//   - A Replica drives ONE goroutine over both streams
//     (Learner.NextEither): optimistic batches are admitted into an
//     Executor for speculation, decided batches reconcile.
//   - The Executor speculates through a regular sched engine (scan or
//     index) via the engine's Exec hook, so speculative execution gets
//     the same conflict-respecting parallel scheduling as normal
//     execution: conflicting commands serialize in admission order,
//     independent ones run on all workers.
//
// # State-machine requirements
//
// Speculation mutates service state before consensus confirms the
// order, so the service must implement command.Versioned: its state
// lives behind multi-version stores (internal/mvstore), every
// execution runs at a speculation epoch whose writes land as
// uncommitted versions, confirmation commits the epoch (pointer flip
// into the committed tip) and rollback aborts it (version drop). Both
// resolutions cost O(keys the command touched) — no per-command undo
// records, no whole-state clone-and-replay.
//
// # Reconciliation and the safety argument
//
// The speculation log records completed speculative executions in
// completion order. Because the engine serializes CONFLICTING commands
// in admission order and the Executor's conflict relation (C-Dep
// key-set intersection, cdep.Compiled.Conflicts, with Global classes
// conflicting with everything) is a subset of what the engine
// serializes, the log's relative order of any conflicting pair equals
// the optimistic admission order — and only conflicting-pair order
// affects state (independent commands commute by the C-Dep contract).
//
// When the decided stream delivers command c:
//
//   - HIT: c was speculated and no UNCONFIRMED log entry preceding c
//     conflicts with it. Then every conflicting predecessor of c was
//     already confirmed in decided order, so c's speculative execution
//     observed exactly the state the decided order prescribes; its
//     stored output is released to the client. Commands decided after
//     c that conflict with it were speculated after it (or not yet),
//     so their order matches too.
//   - MISS: c was never speculated (lost or late optimistic frame). It
//     is admitted through the same engine — serializing behind every
//     conflicting speculation already admitted — executed, and checked
//     exactly like a hit.
//   - MISMATCH: some unconfirmed speculation e preceding c in the log
//     conflicts with c: speculation executed e before c but the
//     decided order wants c first. The Executor drains the engine,
//     computes the tainted suffix — c itself plus every unconfirmed
//     entry conflicting with c before c's position, closed
//     transitively over later entries conflicting with a tainted one —
//     rolls exactly those back (reverse execution order; non-tainted
//     entries commute with every tainted one, so they may stay), then
//     re-executes c in final order. Withdrawn speculations re-execute
//     when their own decisions arrive.
//
// Speculation never escapes: replies are withheld until the speculated
// command is order-confirmed (hit or re-execution), so a client can
// never observe state that consensus has not sanctioned — a rolled-back
// speculation was invisible outside the replica. Duplicate optimistic
// deliveries are dropped by request id, and decided-stream
// retransmissions are answered from the confirmed-output cache. A
// never-decided speculation (a "ghost": a preempted leader's proposal
// that lost consensus) is withdrawn by the first conflicting decided
// command's rollback; a ghost that conflicts with nothing decided
// would otherwise pin its uncommitted versions in the speculative
// state indefinitely — shadowing the committed tip for every later
// speculative read of those keys — so the executor additionally
// evicts (aborts) any
// unconfirmed speculation once GhostEvictAfter decided commands have
// passed it by. Eviction is always safe: if the value is decided after
// all, it simply re-executes as a miss. The MaxSpeculations window cap
// backstops admission itself — when full, the replica stops
// speculating and degrades to sP-SMR behavior, never to inconsistency.
//
// Hit-rate, rollback-count and rollback-depth counters are exposed via
// Executor.Counters / Replica.Counters and surfaced by
// `psmr-bench -exp optimistic`.
package optimistic

import (
	"fmt"
	"sync"
	"time"

	"github.com/psmr/psmr/internal/bench"
	"github.com/psmr/psmr/internal/cdep"
	"github.com/psmr/psmr/internal/checkpoint"
	"github.com/psmr/psmr/internal/command"
	"github.com/psmr/psmr/internal/multicast"
	"github.com/psmr/psmr/internal/obs"
	"github.com/psmr/psmr/internal/paxos"
	"github.com/psmr/psmr/internal/sched"
	"github.com/psmr/psmr/internal/transport"
)

// ReplicaConfig configures one optimistic sP-SMR replica.
type ReplicaConfig struct {
	// ReplicaID distinguishes replicas (used in endpoint names).
	ReplicaID int
	// Workers is the execution pool size.
	Workers int
	// Service is the deterministic state machine; it must implement
	// command.Versioned (see the package doc).
	Service command.Service
	// Spec is the service's C-Dep, used for conflict queries.
	Spec cdep.Spec
	// Group is the single multicast group ordering all commands; its
	// coordinators must run with Optimistic enabled for speculation to
	// see any traffic (without it the replica degrades to decided-path
	// execution).
	Group multicast.GroupConfig
	// Transport carries replica traffic.
	Transport transport.Transport
	// Scheduler selects the scheduling engine speculation runs through.
	Scheduler sched.SchedulerKind
	// Tuning carries the engine pipeline knobs (reader sets, stealing).
	Tuning sched.Tuning
	// QueueBound sizes the scan engine's hand-off channel.
	QueueBound int
	// DedupWindow bounds the per-client confirmed-output cache.
	DedupWindow int
	// MaxSpeculations bounds the unconfirmed speculation window;
	// admission stops speculating (commands execute on the decided
	// path instead) while the window is full. Default 65536.
	MaxSpeculations int
	// GhostEvictAfter withdraws an unconfirmed speculation once this
	// many decided commands passed it by (see ExecutorConfig).
	// Default 4096.
	GhostEvictAfter int
	// ReorderEvery, when positive, swaps every Nth optimistic batch
	// with its successor before speculating — a test/ablation knob that
	// forces optimistic/decided divergence, which a single stable
	// leader never produces on its own.
	ReorderEvery int
	// Checkpoint enables coordinated checkpoints. Snapshots read only
	// COMMITTED versions (Executor.ConfirmedSnapshot), which is exactly
	// the order-confirmed state — no quiesce, and ghosts can never leak
	// into a checkpoint. The service must additionally implement
	// command.Snapshotter.
	Checkpoint checkpoint.Config
	// RecoverPeers bootstraps the replica from a live peer's checkpoint
	// plus decided suffix (requires Checkpoint enabled).
	RecoverPeers []transport.Addr
	// FetchTimeout bounds each peer fetch during recovery. Default 2s.
	FetchTimeout time.Duration
	// CPU optionally meters reconciler and worker busy time.
	CPU *bench.CPUMeter
	// Trace optionally stamps sampled commands at the learner-delivery,
	// engine, confirmation and rollback stage boundaries.
	Trace *obs.Tracer
	// Journal optionally records learner/engine/rollback/checkpoint
	// events in the flight recorder.
	Journal *obs.Journal
}

// Replica is an optimistic sP-SMR replica: one learner retaining both
// streams, one driver goroutine interleaving speculation and
// reconciliation, and the speculative Executor with its worker pool.
type Replica struct {
	learner  *paxos.Learner
	executor *Executor
	ckpt     *checkpoint.Driver
	ckptSrv  *checkpoint.Server

	// Reorder-knob state (driver goroutine only).
	reorderEvery int
	sinceSwap    int
	held         []*command.Request

	// replies interns decoded reply addresses (driver goroutine only).
	replies command.Interner

	journal   *obs.Journal
	replicaID int
	done      chan struct{}
	closeOnce sync.Once
}

// LearnerAddr names the replica's learner endpoint for cluster wiring
// (same scheme as the other replica kinds).
func LearnerAddr(replicaID int, groupID uint32) transport.Addr {
	return transport.Addr(fmt.Sprintf("r%d/g%d", replicaID, groupID))
}

// StartReplica wires the learner, the executor and the driver. With
// RecoverPeers set it first bootstraps the service from a live peer's
// checkpoint (restoring BEFORE any speculation is admitted) and
// replays the decided suffix.
func StartReplica(cfg ReplicaConfig) (*Replica, error) {
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	compiled, err := cdep.Compile(cfg.Spec, workers)
	if err != nil {
		return nil, fmt.Errorf("optimistic: compile C-Dep: %w", err)
	}
	if cfg.Checkpoint.Enabled() {
		if _, ok := cfg.Service.(command.Snapshotter); !ok {
			return nil, fmt.Errorf("optimistic: checkpointing requires the service to implement command.Snapshotter, got %T", cfg.Service)
		}
	}
	var boot *checkpoint.Bootstrap
	if len(cfg.RecoverPeers) > 0 {
		var err error
		boot, err = checkpoint.Recover(cfg.Checkpoint, cfg.Transport, cfg.RecoverPeers,
			cfg.ReplicaID, cfg.FetchTimeout, cfg.Service)
		if err != nil {
			return nil, fmt.Errorf("optimistic: %w", err)
		}
	}
	executor, err := StartExecutor(ExecutorConfig{
		Workers:         workers,
		Service:         cfg.Service,
		Compiled:        compiled,
		Transport:       cfg.Transport,
		Scheduler:       cfg.Scheduler,
		Tuning:          cfg.Tuning,
		QueueBound:      cfg.QueueBound,
		DedupWindow:     cfg.DedupWindow,
		MaxSpeculations: cfg.MaxSpeculations,
		GhostEvictAfter: cfg.GhostEvictAfter,
		CPU:             cfg.CPU,
		Trace:           cfg.Trace,
		Journal:         cfg.Journal,
	})
	if err != nil {
		return nil, fmt.Errorf("optimistic: start executor: %w", err)
	}
	learner, err := paxos.StartLearner(paxos.LearnerConfig{
		GroupID:       cfg.Group.ID,
		Addr:          LearnerAddr(cfg.ReplicaID, cfg.Group.ID),
		Transport:     cfg.Transport,
		Coordinators:  cfg.Group.Coordinators,
		Optimistic:    true,
		StartInstance: boot.Start(),
		CPU:           cfg.CPU.Role("learner"),
		Trace:         cfg.Trace,
		Journal:       cfg.Journal,
	})
	if err != nil {
		_ = executor.Close()
		return nil, fmt.Errorf("optimistic: start learner: %w", err)
	}
	r := &Replica{
		learner:      learner,
		executor:     executor,
		reorderEvery: cfg.ReorderEvery,
		journal:      cfg.Journal,
		replicaID:    cfg.ReplicaID,
		done:         make(chan struct{}),
	}
	if cfg.Checkpoint.Enabled() {
		gid := cfg.Group.ID
		p, err := checkpoint.Wire(checkpoint.WireConfig{
			Config:    cfg.Checkpoint,
			ReplicaID: cfg.ReplicaID,
			Transport: cfg.Transport,
			Snapshot:  executor.ConfirmedSnapshot,
			Floor:     learner.SetRetainFloor,
			Log:       learner,
			Replay: func(instance uint64, value []byte) {
				_ = cfg.Transport.Send(LearnerAddr(cfg.ReplicaID, gid), paxos.NewDecisionFrame(gid, instance, value))
			},
			Boot: boot,
		})
		if err != nil {
			_ = learner.Close()
			_ = executor.Close()
			return nil, fmt.Errorf("optimistic: %w", err)
		}
		r.ckpt, r.ckptSrv = p.Driver, p.Server
	}
	go r.drive()
	return r, nil
}

// CheckpointCounters returns the replica's checkpoint statistics
// (zero-valued when checkpointing is disabled).
func (r *Replica) CheckpointCounters() checkpoint.Counters {
	if r.ckpt == nil {
		return checkpoint.Counters{}
	}
	return r.ckpt.Counters()
}

// Counters returns the replica's speculation counters.
func (r *Replica) Counters() Counters { return r.executor.Counters() }

// GapStalls reports the learner's gap-stall transitions (the anomaly
// watcher's learner-stall signal).
func (r *Replica) GapStalls() uint64 { return r.learner.GapStalls() }

// SchedStats reports the underlying engine's work-stealing counters
// (zeros for the scan engine, which does not steal).
func (r *Replica) SchedStats() (stolen uint64, raided int64) {
	return sched.EngineStats(r.executor.engine)
}

// Close stops the replica and waits for all goroutines. Close is
// idempotent.
func (r *Replica) Close() error {
	var err error
	r.closeOnce.Do(func() {
		if r.ckptSrv != nil {
			_ = r.ckptSrv.Close()
		}
		err = r.learner.Close()
		<-r.done
		_ = r.executor.Close()
	})
	return err
}

// drive is the replica's single delivery loop: ONE goroutine owns both
// cursors, so engine admissions (speculative and decided-path) happen
// in one well-defined serial order — the property every reconciliation
// invariant rests on. Decided batches take priority (NextEither) so
// the speculation window stays short, but before each reconcile the
// optimistic BACKLOG is drained into the executor: admission is
// non-blocking, and it puts the about-to-be-decided commands onto the
// worker pool so they execute in parallel while the reconciliation
// walk confirms them in decided order. Without the drain, a driver
// that falls behind the decided stream would starve speculation
// entirely (optimistic batches would rot until already confirmed).
func (r *Replica) drive() {
	defer close(r.done)
	dec := r.learner.NewCursor()
	opt := r.learner.NewOptCursor()
	for {
		b, instance, decided, ok := r.learner.NextEither(dec, opt)
		if !ok {
			return
		}
		if !decided {
			r.speculate(b)
			continue
		}
		for {
			ob, ready := opt.TryNext()
			if !ready {
				break
			}
			r.speculate(ob)
		}
		if b.Skip {
			continue
		}
		if reqs := decodeBatch(b, &r.replies); len(reqs) > 0 {
			r.executor.Commit(reqs)
			if r.ckpt != nil {
				// Coordinated checkpoint at the decided batch boundary:
				// ConfirmedSnapshot reads only committed versions, so
				// the marker runs right here on the driver instead of
				// riding an engine barrier — same deterministic decided
				// position (instance+1), confirmed state only.
				r.ckpt.Tick(len(reqs))
				if r.ckpt.Due() {
					r.journal.Emit(obs.EvCheckpoint, uint64(r.replicaID), instance+1)
					r.ckpt.Marker(instance + 1)()
				}
			}
		}
	}
}

// speculate admits one optimistic batch, applying the ReorderEvery
// perturbation knob (hold every Nth batch back one slot).
func (r *Replica) speculate(b *paxos.Batch) {
	if b.Skip {
		return
	}
	reqs := decodeBatch(b, &r.replies)
	if len(reqs) == 0 {
		return
	}
	if r.reorderEvery > 0 {
		if r.held != nil {
			held := r.held
			r.held = nil
			r.executor.Speculate(reqs)
			r.executor.Speculate(held)
			return
		}
		if r.sinceSwap++; r.sinceSwap >= r.reorderEvery {
			r.sinceSwap = 0
			r.held = reqs
			return
		}
	}
	r.executor.Speculate(reqs)
}

// decodeBatch decodes a batch's items into one slab, skipping corrupt
// entries (the same tolerance as the other delivery pumps). Slabs are
// never recycled: the executor and engine keep the requests until they
// are confirmed, and the GC frees the slab after its last one.
func decodeBatch(b *paxos.Batch, replies *command.Interner) []*command.Request {
	slab := make([]command.Request, len(b.Items))
	reqs := make([]*command.Request, 0, len(b.Items))
	for i, item := range b.Items {
		if _, err := command.DecodeRequestInto(&slab[i], item, replies); err != nil {
			continue
		}
		reqs = append(reqs, &slab[i])
	}
	return reqs
}

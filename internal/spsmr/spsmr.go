// Package spsmr implements semi-parallel state-machine replication
// (sP-SMR, paper §III and §VI): commands are totally ordered in a
// single multicast group and delivered as one sequential stream to a
// scheduler thread, which dispatches independent commands to a pool of
// worker threads and serializes dependent ones. This is the
// CBASE-style architecture [Kotla & Dahlin, DSN'04] that the paper
// positions P-SMR against: execution is parallel, but delivery and
// scheduling run through a single, bottleneck-prone component.
//
// The scheduling engine itself lives in internal/sched and is shared
// with the no-rep baseline; this package adds the ordered delivery
// path (learner + delivery pump).
package spsmr

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

// ReplicaConfig configures one sP-SMR replica.
type ReplicaConfig struct {
	// ReplicaID distinguishes replicas (used in endpoint names).
	ReplicaID int
	// Workers is the size of the execution pool (the scheduler thread
	// is extra, matching how the paper counts threads).
	Workers int
	// Service is the deterministic state machine.
	Service command.Service
	// Spec is the service's C-Dep, used for conflict queries.
	Spec cdep.Spec
	// Group is the single multicast group ordering all commands.
	Group multicast.GroupConfig
	// Transport carries replica traffic.
	Transport transport.Transport
	// Scheduler selects the scheduling engine: the scan scheduler
	// (default, the paper's bottleneck) or the index-based early
	// scheduler.
	Scheduler sched.SchedulerKind
	// Tuning carries the engine pipeline knobs (reader sets, work
	// stealing); the zero value enables everything.
	Tuning sched.Tuning
	// QueueBound sizes the scheduler-to-workers hand-off channel.
	QueueBound int
	// DedupWindow bounds the per-client at-most-once table.
	DedupWindow int
	// Checkpoint enables coordinated checkpoints: every Interval
	// decided commands the delivery pump injects a quiesce marker that
	// rides the engine's global barrier, snapshots the service
	// (command.Snapshotter required), stores it keyed by (instance,
	// fingerprint), and advances the learner's retain floor. The
	// replica also serves peer catch-up at checkpoint.ServerAddr.
	// Checkpointed pumps always use batched admission (markers are
	// ordered on the batch path).
	Checkpoint checkpoint.Config
	// RecoverPeers, when non-empty (requires Checkpoint enabled),
	// bootstraps the replica from a live peer: fetch the newest
	// snapshot plus decided suffix, restore, start delivery at the
	// checkpoint instance and replay.
	RecoverPeers []transport.Addr
	// FetchTimeout bounds each peer fetch during recovery. Default 2s.
	FetchTimeout time.Duration
	// CPU optionally meters scheduler and worker busy time.
	CPU *bench.CPUMeter
	// Trace optionally stamps sampled commands at the learner-delivery,
	// engine-admission and execution stage boundaries.
	Trace *obs.Tracer
	// Journal optionally records learner/engine/checkpoint events in
	// the flight recorder.
	Journal *obs.Journal
}

// Replica is an sP-SMR replica: one learner, one delivery pump feeding
// the single scheduler, and a pool of worker goroutines — plus, with
// checkpointing enabled, a checkpoint driver and the peer catch-up
// server.
type Replica struct {
	learner   *paxos.Learner
	scheduler sched.Engine
	ckpt      *checkpoint.Driver
	ckptSrv   *checkpoint.Server
	journal   *obs.Journal
	replicaID int
	done      chan struct{}
	closeOnce sync.Once
}

// LearnerAddr names the replica's learner endpoint for cluster wiring.
func LearnerAddr(replicaID int, groupID uint32) transport.Addr {
	return transport.Addr(fmt.Sprintf("r%d/g%d", replicaID, groupID))
}

// StartReplica wires the learner and launches the scheduling engine.
// With RecoverPeers set it first bootstraps the service from a live
// peer's checkpoint and replays the decided suffix.
func StartReplica(cfg ReplicaConfig) (*Replica, error) {
	compiled, err := cdep.Compile(cfg.Spec, max(cfg.Workers, 1))
	if err != nil {
		return nil, fmt.Errorf("spsmr: compile C-Dep: %w", err)
	}
	var snapper command.Snapshotter
	if cfg.Checkpoint.Enabled() {
		var ok bool
		if snapper, ok = cfg.Service.(command.Snapshotter); !ok {
			return nil, fmt.Errorf("spsmr: checkpointing requires the service to implement command.Snapshotter, got %T", cfg.Service)
		}
	}
	var boot *checkpoint.Bootstrap
	if len(cfg.RecoverPeers) > 0 {
		var err error
		boot, err = checkpoint.Recover(cfg.Checkpoint, cfg.Transport, cfg.RecoverPeers,
			cfg.ReplicaID, cfg.FetchTimeout, cfg.Service)
		if err != nil {
			return nil, fmt.Errorf("spsmr: %w", err)
		}
	}
	scheduler, err := sched.StartEngine(sched.Config{
		Kind:        cfg.Scheduler,
		Workers:     cfg.Workers,
		Service:     cfg.Service,
		Compiled:    compiled,
		Transport:   cfg.Transport,
		QueueBound:  cfg.QueueBound,
		DedupWindow: cfg.DedupWindow,
		CPU:         cfg.CPU,
		Trace:       cfg.Trace,
		Journal:     cfg.Journal,
		Tuning:      cfg.Tuning,
	})
	if err != nil {
		return nil, fmt.Errorf("spsmr: start scheduler: %w", err)
	}
	learner, err := paxos.StartLearner(paxos.LearnerConfig{
		GroupID:       cfg.Group.ID,
		Addr:          LearnerAddr(cfg.ReplicaID, cfg.Group.ID),
		Transport:     cfg.Transport,
		Coordinators:  cfg.Group.Coordinators,
		StartInstance: boot.Start(),
		CPU:           cfg.CPU.Role("learner"),
		Trace:         cfg.Trace,
		Journal:       cfg.Journal,
	})
	if err != nil {
		_ = scheduler.Close()
		return nil, fmt.Errorf("spsmr: start learner: %w", err)
	}
	r := &Replica{
		learner:   learner,
		scheduler: scheduler,
		journal:   cfg.Journal,
		replicaID: cfg.ReplicaID,
		done:      make(chan struct{}),
	}
	if cfg.Checkpoint.Enabled() {
		p, err := checkpoint.Wire(checkpoint.WireConfig{
			Config:    cfg.Checkpoint,
			ReplicaID: cfg.ReplicaID,
			Transport: cfg.Transport,
			Snapshot:  func() ([]byte, bool) { return snapper.Snapshot(), true },
			Floor:     learner.SetRetainFloor,
			Log:       learner,
			Replay:    replayTo(cfg.Transport, LearnerAddr(cfg.ReplicaID, cfg.Group.ID), cfg.Group.ID),
			Boot:      boot,
		})
		if err != nil {
			_ = learner.Close()
			_ = scheduler.Close()
			return nil, fmt.Errorf("spsmr: %w", err)
		}
		r.ckpt, r.ckptSrv = p.Driver, p.Server
	}
	go r.deliver()
	return r, nil
}

// replayTo injects fetched decided values into a learner endpoint as
// ordinary decision frames.
func replayTo(tr transport.Transport, addr transport.Addr, groupID uint32) func(uint64, []byte) {
	return func(instance uint64, value []byte) {
		_ = tr.Send(addr, paxos.NewDecisionFrame(groupID, instance, value))
	}
}

// SchedStats reports the engine's work-stealing counters (zeros for
// the scan engine, which does not steal).
func (r *Replica) SchedStats() (stolen uint64, raided int64) {
	return sched.EngineStats(r.scheduler)
}

// GapStalls reports the learner's gap-stall transitions (the anomaly
// watcher's learner-stall signal).
func (r *Replica) GapStalls() uint64 { return r.learner.GapStalls() }

// CheckpointCounters returns the replica's checkpoint statistics
// (zero-valued when checkpointing is disabled).
func (r *Replica) CheckpointCounters() checkpoint.Counters {
	if r.ckpt == nil {
		return checkpoint.Counters{}
	}
	return r.ckpt.Counters()
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
		_ = r.scheduler.Close()
	})
	return err
}

// deliver is the delivery pump: it turns the ordered batch stream into
// the scheduler's sequential admission stream (the defining property
// of sP-SMR). Whole decided batches are handed to the engine so it
// acquires its shard and ingress locks once per burst instead of once
// per command.
func (r *Replica) deliver() {
	defer close(r.done)
	cursor := r.learner.NewCursor()
	var replies command.Interner
	for {
		batch, instance, ok := cursor.Next()
		if !ok {
			return
		}
		if batch.Skip {
			continue
		}
		// One slab per decided batch: the engine keeps each request
		// until the command completes, so slabs are never recycled —
		// the GC frees a slab once its last command is done.
		slab := make([]command.Request, len(batch.Items))
		reqs := make([]*command.Request, 0, len(batch.Items))
		for i, item := range batch.Items {
			req := &slab[i]
			if _, err := command.DecodeRequestInto(req, item, &replies); err != nil {
				continue
			}
			reqs = append(reqs, req)
		}
		if len(reqs) == 0 {
			continue
		}
		if !r.scheduler.SubmitBatch(reqs) {
			return
		}
		if r.ckpt != nil {
			// Coordinated checkpoint: the marker rides the engine's
			// global barrier right after this batch, so every replica
			// snapshots at the same decided position (instance+1).
			r.ckpt.Tick(len(reqs))
			if r.ckpt.Due() {
				r.journal.Emit(obs.EvCheckpoint, uint64(r.replicaID), instance+1)
				if !r.scheduler.SubmitMarker(r.ckpt.Marker(instance + 1)) {
					return
				}
			}
		}
	}
}

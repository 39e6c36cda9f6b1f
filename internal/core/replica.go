// Package core implements Parallel State-Machine Replication (P-SMR),
// the paper's contribution (§IV): client proxies that multicast each
// command to the groups computed by the C-G function, and server
// replicas whose worker threads deliver commands from multiple parallel
// streams and execute them in parallel mode (single destination) or
// synchronous mode (barrier across the destination workers,
// Algorithm 1).
//
// Classic SMR is the k=1 degeneration of this package: one worker, one
// group, sequential delivery and execution.
package core

import (
	"fmt"
	"sync"
	"time"

	"github.com/psmr/psmr/internal/bench"
	"github.com/psmr/psmr/internal/cdep"
	"github.com/psmr/psmr/internal/checkpoint"
	"github.com/psmr/psmr/internal/command"
	"github.com/psmr/psmr/internal/dedup"
	"github.com/psmr/psmr/internal/multicast"
	"github.com/psmr/psmr/internal/obs"
	"github.com/psmr/psmr/internal/paxos"
	"github.com/psmr/psmr/internal/transport"
)

// ReplicaConfig configures one P-SMR replica.
type ReplicaConfig struct {
	// ReplicaID distinguishes replicas (used in endpoint names).
	ReplicaID int
	// Workers is the multiprogramming level k: the number of worker
	// threads (paper §IV-C).
	Workers int
	// Service is the deterministic state machine all workers execute
	// against. With Workers > 1 the service must tolerate concurrent
	// execution of commands its C-Dep declares independent.
	Service command.Service
	// Groups are the multicast groups: either k parallel groups plus
	// one serial group (P-SMR), or exactly one group when Workers == 1
	// (classic SMR). With Subsets compiled, the layout is k worker
	// groups, then one group per subset (canonical table order), then
	// the serial group.
	Groups []multicast.GroupConfig
	// Subsets, when non-nil, declares the dedicated multi-worker subset
	// groups wired between the worker groups and the serial group. Each
	// worker additionally subscribes (in canonical order) to the subset
	// streams containing it; the deterministic merge restricted to any
	// common stream set is identical at every subscriber, so rendezvous
	// order is unaffected. Must match the clients' table.
	Subsets *cdep.SubsetTable
	// Transport carries all replica traffic.
	Transport transport.Transport
	// MergeWeight is the deterministic-merge weight: slots per stream
	// per round, one slot per command. It must match the coordinators'
	// SkipSlots. Default 256.
	MergeWeight int
	// DedupWindow bounds the per-client at-most-once table. Default 512.
	DedupWindow int
	// Checkpoint enables coordinated checkpoints. Supported for
	// SINGLE-GROUP deployments only (classic SMR and the degenerate
	// one-worker P-SMR): the lone worker snapshots inline at decided
	// batch boundaries, which is trivially a quiesce point. Multi-group
	// P-SMR would need vectored checkpoint positions plus merge-state
	// capture — an open item (see ROADMAP).
	Checkpoint checkpoint.Config
	// RecoverPeers bootstraps the replica from a live peer's checkpoint
	// plus decided suffix (requires Checkpoint enabled).
	RecoverPeers []transport.Addr
	// FetchTimeout bounds each peer fetch during recovery. Default 2s.
	FetchTimeout time.Duration
	// CPU optionally meters worker and learner busy time.
	CPU *bench.CPUMeter
	// Trace optionally stamps sampled commands at the learner-delivery
	// and execution stage boundaries (nil disables at zero cost).
	Trace *obs.Tracer
	// Journal optionally records learner/checkpoint events in the
	// flight recorder (nil disables at zero cost).
	Journal *obs.Journal
}

// Replica is a P-SMR server replica: k worker goroutines, each
// delivering from its own parallel group plus the shared serial group
// through a deterministic merge, executing against the shared service.
type Replica struct {
	cfg      ReplicaConfig
	learners []*paxos.Learner
	workers  []*worker
	ckpt     *checkpoint.Driver
	ckptSrv  *checkpoint.Server

	// Barrier channels for synchronous mode: sig[j][e] carries worker
	// j's "ready" signal to executor e; rel[e][j] carries the release
	// back (Algorithm 1 lines 18-26, Figure 2 signals (a) and (b)).
	sig [][]chan struct{}
	rel [][]chan struct{}

	stop      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// serialGroupIndex reports the index of the shared serial group, or -1
// when the deployment has no serial group (k parallel groups only).
// Subset groups sit between the worker groups and the serial group.
func serialGroupIndex(workers, subsets, groups int) int {
	if groups == workers+subsets+1 {
		return groups - 1
	}
	return -1
}

// StartReplica wires learners and launches the worker goroutines.
func StartReplica(cfg ReplicaConfig) (*Replica, error) {
	if cfg.Workers < 1 || cfg.Workers > 64 {
		return nil, fmt.Errorf("core: %d workers outside [1,64]", cfg.Workers)
	}
	if s := cfg.Subsets.Count(); s > 0 {
		if len(cfg.Groups) != cfg.Workers+s+1 {
			return nil, fmt.Errorf("core: %d groups for %d workers + %d subsets (want k+S+1)",
				len(cfg.Groups), cfg.Workers, s)
		}
	} else if len(cfg.Groups) != cfg.Workers && len(cfg.Groups) != cfg.Workers+1 {
		return nil, fmt.Errorf("core: %d groups for %d workers (want k or k+1)",
			len(cfg.Groups), cfg.Workers)
	}
	if cfg.MergeWeight <= 0 {
		cfg.MergeWeight = 256
	}
	if cfg.DedupWindow <= 0 {
		cfg.DedupWindow = 512
	}
	var snapper command.Snapshotter
	if cfg.Checkpoint.Enabled() {
		if len(cfg.Groups) != 1 {
			return nil, fmt.Errorf("core: checkpointing requires a single group (got %d); multi-group P-SMR checkpoint positions are an open item", len(cfg.Groups))
		}
		var ok bool
		if snapper, ok = cfg.Service.(command.Snapshotter); !ok {
			return nil, fmt.Errorf("core: checkpointing requires the service to implement command.Snapshotter, got %T", cfg.Service)
		}
	}
	var boot *checkpoint.Bootstrap
	if len(cfg.RecoverPeers) > 0 {
		var err error
		boot, err = checkpoint.Recover(cfg.Checkpoint, cfg.Transport, cfg.RecoverPeers,
			cfg.ReplicaID, cfg.FetchTimeout, cfg.Service)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}

	r := &Replica{
		cfg:  cfg,
		stop: make(chan struct{}),
	}
	k := cfg.Workers
	r.sig = makeBarrier(k)
	r.rel = makeBarrier(k)

	// One learner per group; the serial group's learner serves one
	// cursor per worker.
	for _, g := range cfg.Groups {
		addr := transport.Addr(fmt.Sprintf("r%d/g%d", cfg.ReplicaID, g.ID))
		l, err := paxos.StartLearner(paxos.LearnerConfig{
			GroupID:       g.ID,
			Addr:          addr,
			Transport:     cfg.Transport,
			Coordinators:  g.Coordinators,
			StartInstance: boot.Start(),
			CPU:           cfg.CPU.Role("learner"),
			Trace:         cfg.Trace,
			Journal:       cfg.Journal,
		})
		if err != nil {
			r.closeLearners()
			return nil, fmt.Errorf("core: start learner for group %d: %w", g.ID, err)
		}
		r.learners = append(r.learners, l)
	}
	if cfg.Checkpoint.Enabled() {
		learner := r.learners[0]
		gid := cfg.Groups[0].ID
		p, err := checkpoint.Wire(checkpoint.WireConfig{
			Config:    cfg.Checkpoint,
			ReplicaID: cfg.ReplicaID,
			Transport: cfg.Transport,
			Snapshot:  func() ([]byte, bool) { return snapper.Snapshot(), true },
			Floor:     learner.SetRetainFloor,
			Log:       learner,
			Replay: func(instance uint64, value []byte) {
				_ = cfg.Transport.Send(LearnerAddr(cfg.ReplicaID, gid), paxos.NewDecisionFrame(gid, instance, value))
			},
			Boot: boot,
		})
		if err != nil {
			r.closeLearners()
			return nil, fmt.Errorf("core: %w", err)
		}
		r.ckpt, r.ckptSrv = p.Driver, p.Server
	}

	serialIdx := serialGroupIndex(k, cfg.Subsets.Count(), len(cfg.Groups))
	for i := 0; i < k; i++ {
		// Subscription order is ascending group id at every worker: own
		// group (id i < k), then the subset groups containing this worker
		// (ids k..k+S-1, canonical order), then the serial group (last).
		// Identical ordering of the common streams at all subscribers is
		// what keeps the deterministic merge consistent.
		cursors := []*paxos.Cursor{r.learners[i].NewCursor()}
		for _, si := range cfg.Subsets.ForWorker(i) {
			cursors = append(cursors, r.learners[k+si].NewCursor())
		}
		if serialIdx >= 0 {
			cursors = append(cursors, r.learners[serialIdx].NewCursor())
		}
		w := &worker{
			r:      r,
			idx:    i,
			merger: multicast.NewMerger(cursors, cfg.MergeWeight),
			dedup:  dedup.NewTable(cfg.DedupWindow),
			cpu:    cfg.CPU.Role("worker"),
		}
		r.workers = append(r.workers, w)
	}
	for _, w := range r.workers {
		r.wg.Add(1)
		go w.run()
	}
	return r, nil
}

// LearnerAddr returns the address decisions must be pushed to for a
// group of this replica; the cluster wiring adds these to the group's
// coordinator learner list.
func LearnerAddr(replicaID int, groupID uint32) transport.Addr {
	return transport.Addr(fmt.Sprintf("r%d/g%d", replicaID, groupID))
}

// Close stops the replica: workers drain out and learners shut down.
// Close is idempotent.
func (r *Replica) Close() error {
	r.closeOnce.Do(func() {
		if r.ckptSrv != nil {
			_ = r.ckptSrv.Close()
		}
		close(r.stop)
		r.closeLearners()
	})
	r.wg.Wait()
	return nil
}

// CheckpointCounters returns the replica's checkpoint statistics
// (zero-valued when checkpointing is disabled).
func (r *Replica) CheckpointCounters() checkpoint.Counters {
	if r.ckpt == nil {
		return checkpoint.Counters{}
	}
	return r.ckpt.Counters()
}

// GapStalls sums the replica's learners' gap-stall transitions (the
// anomaly watcher's learner-stall signal).
func (r *Replica) GapStalls() uint64 {
	var total uint64
	for _, l := range r.learners {
		total += l.GapStalls()
	}
	return total
}

func (r *Replica) closeLearners() {
	for _, l := range r.learners {
		_ = l.Close()
	}
}

func makeBarrier(k int) [][]chan struct{} {
	chs := make([][]chan struct{}, k)
	for i := range chs {
		chs[i] = make([]chan struct{}, k)
		for j := range chs[i] {
			chs[i][j] = make(chan struct{}, 1)
		}
	}
	return chs
}

// worker is one replica thread t_i (Algorithm 1, lines 7-26).
type worker struct {
	r      *Replica
	idx    int
	merger *multicast.Merger
	dedup  *dedup.Table
	cpu    *bench.RoleMeter

	// req is the worker's decode target, reused for every delivery: a
	// command is fully executed and answered (or its barrier released)
	// before the worker decodes the next one, and nothing downstream
	// keeps the *Request. replies interns the decoded reply addresses.
	req     command.Request
	replies command.Interner
}

func (w *worker) run() {
	defer w.r.wg.Done()
	for {
		item, ok := w.merger.Next()
		if !ok {
			return
		}
		if !w.step(item) {
			return
		}
		if w.r.ckpt != nil {
			// Single-group checkpointing: the lone worker IS the whole
			// execution engine, so the gap between two commands is a
			// quiesce point — snapshot inline at the decided batch
			// boundary. Every delivered item is counted (deterministic
			// across replicas: same stream, same count).
			w.r.ckpt.Tick(1)
			if item.Last && w.r.ckpt.Due() {
				w.r.cfg.Journal.Emit(obs.EvCheckpoint, uint64(w.r.cfg.ReplicaID), item.Instance+1)
				w.r.ckpt.Marker(item.Instance + 1)()
			}
		}
	}
}

// step handles one merged delivery; it reports false when the replica
// is stopping.
func (w *worker) step(item multicast.Item) bool {
	t0 := time.Now()
	req := &w.req
	if _, err := command.DecodeRequestInto(req, item.Payload, &w.replies); err != nil {
		w.cpu.Add(time.Since(t0))
		return true
	}
	if req.Gamma.Count() <= 1 {
		// Parallel mode: the command was multicast to this worker's
		// own group only (lines 10-13).
		w.executeAndReply(req)
		w.cpu.Add(time.Since(t0))
		return true
	}
	if !req.Gamma.Has(w.idx) {
		// Serial-group traffic destined to other workers.
		w.cpu.Add(time.Since(t0))
		return true
	}
	w.cpu.Add(time.Since(t0))
	return w.synchronousMode(req)
}

// synchronousMode runs Algorithm 1 lines 14-26 for one multi-
// destination command. It reports false when the replica is stopping.
func (w *worker) synchronousMode(req *command.Request) bool {
	e := req.Gamma.Min()
	if w.idx != e {
		// Signal the executor and pause until it has executed C
		// (lines 24-26).
		select {
		case w.r.sig[w.idx][e] <- struct{}{}:
		case <-w.r.stop:
			return false
		}
		select {
		case <-w.r.rel[e][w.idx]:
		case <-w.r.stop:
			return false
		}
		return true
	}
	// Executor: wait for every other destination worker (lines 18-19).
	for _, j := range req.Gamma.Workers() {
		if j == w.idx {
			continue
		}
		select {
		case <-w.r.sig[j][w.idx]:
		case <-w.r.stop:
			return false
		}
	}
	t0 := time.Now()
	w.executeAndReply(req) // lines 20-21
	w.cpu.Add(time.Since(t0))
	// Release the paused workers (lines 22-23).
	for _, j := range req.Gamma.Workers() {
		if j == w.idx {
			continue
		}
		select {
		case w.r.rel[w.idx][j] <- struct{}{}:
		case <-w.r.stop:
			return false
		}
	}
	return true
}

// executeAndReply applies the command (with at-most-once protection)
// and sends the response to the client proxy.
func (w *worker) executeAndReply(req *command.Request) {
	output, duplicate := w.dedup.Lookup(req.Client, req.Seq)
	if !duplicate {
		w.r.cfg.Trace.StampID(obs.StageExecStart, req.Client, req.Seq)
		output = w.r.cfg.Service.Execute(req.Cmd, req.Input)
		w.r.cfg.Trace.StampID(obs.StageExecEnd, req.Client, req.Seq)
		w.dedup.Record(req.Client, req.Seq, output)
	}
	if req.Reply == "" {
		return
	}
	resp := command.AppendResponse(nil, &command.Response{
		Client: req.Client,
		Seq:    req.Seq,
		Output: output,
	})
	_ = w.r.cfg.Transport.Send(req.Reply, resp)
}

// Package psmr is a production-quality Go implementation of Parallel
// State-Machine Replication (P-SMR) from "Rethinking State-Machine
// Replication for Parallelism" (Marandi, Bezerra, Pedone — ICDCS 2014),
// together with the replication baselines the paper evaluates.
//
// The package wires complete replicated deployments: per-group Paxos
// (coordinator candidates, acceptors, learners), the atomic-multicast
// layer with deterministic merge, and the replica execution engines:
//
//   - ModePSMR  — parallel delivery and parallel execution (the paper's
//     contribution): k worker threads, k parallel groups plus one
//     serial group, Algorithm 1's parallel/synchronous execution modes.
//   - ModeSMR   — classic state-machine replication: sequential
//     delivery, sequential execution (k = 1, one group).
//   - ModeSPSMR — semi-parallel SMR: sequential delivery into a single
//     scheduler that dispatches independent commands onto a worker
//     pool (the CBASE/Eve family the paper compares against).
//
// A Cluster runs all roles in one process over an in-process message
// network, which is how the test-suite and the benchmark harness
// reproduce the paper's evaluation; the cmd/ directory wires the same
// components over TCP for multi-process deployments.
package psmr

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/psmr/psmr/internal/bench"
	"github.com/psmr/psmr/internal/cdep"
	"github.com/psmr/psmr/internal/checkpoint"
	"github.com/psmr/psmr/internal/command"
	"github.com/psmr/psmr/internal/core"
	"github.com/psmr/psmr/internal/multicast"
	"github.com/psmr/psmr/internal/obs"
	"github.com/psmr/psmr/internal/optimistic"
	"github.com/psmr/psmr/internal/paxos"
	"github.com/psmr/psmr/internal/proxy"
	"github.com/psmr/psmr/internal/sched"
	"github.com/psmr/psmr/internal/spsmr"
	"github.com/psmr/psmr/internal/transport"
)

// OptimisticCounters is a snapshot of one optimistic replica's
// speculation statistics (hit rate, rollbacks, rollback depth).
type OptimisticCounters = optimistic.Counters

// CheckpointConfig enables and sizes coordinated checkpoints (see
// internal/checkpoint): Interval is the number of decided commands
// between snapshots (0 disables), Retain how many snapshots each
// replica keeps for peer catch-up.
type CheckpointConfig = checkpoint.Config

// CheckpointCounters is a snapshot of one replica's checkpoint
// statistics (count, snapshot size, quiesce pause, restores).
type CheckpointCounters = checkpoint.Counters

// SchedulerKind selects the sP-SMR scheduling engine (ModeSPSMR only).
type SchedulerKind = sched.SchedulerKind

// SchedTuning carries the execution pipeline knobs (reader sets
// on/off, work stealing on/off and its batch size, the direct-path
// admission yield); the zero value enables everything.
type SchedTuning = sched.Tuning

// sP-SMR scheduling engines.
const (
	// SchedScan is the paper's scheduler: one thread scans conflicts at
	// admission and feeds a worker pool (the measured bottleneck).
	SchedScan = sched.KindScan
	// SchedIndex is the index-based early scheduler: compiled
	// class-to-worker routes plus a per-key conflict index; commands
	// flow straight into per-worker queues with no scheduler thread.
	SchedIndex = sched.KindIndex
)

// Mode selects the replication technique (Table I of the paper).
type Mode int

// Replication modes.
const (
	// ModePSMR is Parallel State-Machine Replication: parallel
	// delivery, parallel execution.
	ModePSMR Mode = iota + 1
	// ModeSMR is classic state-machine replication: sequential
	// delivery, sequential execution.
	ModeSMR
	// ModeSPSMR is semi-parallel state-machine replication: sequential
	// delivery through a scheduler, parallel execution.
	ModeSPSMR
)

func (m Mode) String() string {
	switch m {
	case ModePSMR:
		return "P-SMR"
	case ModeSMR:
		return "SMR"
	case ModeSPSMR:
		return "sP-SMR"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config describes a replicated deployment.
type Config struct {
	// Mode selects the replication technique.
	Mode Mode
	// Workers is the multiprogramming level (worker threads per
	// replica). ModeSMR forces 1.
	Workers int
	// Replicas is the number of server replicas (the paper uses
	// n = f+1 = 2). Default 2.
	Replicas int
	// Acceptors per Paxos group. Default 3 (tolerates one failure).
	Acceptors int
	// CoordinatorCandidates per group (>=2 enables fail-over). Default 1.
	CoordinatorCandidates int
	// NewService builds one deterministic service instance per replica.
	NewService func() command.Service
	// Spec is the service's command-dependency specification (C-Dep).
	Spec cdep.Spec
	// Placement optionally pins hot keys to groups (see cdep.WithPlacement).
	Placement map[uint64]int
	// Transport defaults to a fresh in-process network. Provide a
	// MemNetwork to inject faults in tests, or a TCPNode to host the
	// cluster's roles in a process reachable over the network.
	Transport transport.Transport

	// MergeWeight is the deterministic merge weight (= coordinator skip
	// slots, one slot per command). Default 256.
	MergeWeight int
	// SkipInterval is the coordinators' skip padding period. Default
	// 1ms. Only groups that feed multi-stream merges pad (the serial
	// group and parallel groups in ModePSMR with k >= 1).
	SkipInterval time.Duration
	// BatchMaxBytes is the consensus batch size limit. Default 8192
	// (the paper's 8 KB).
	BatchMaxBytes int
	// FlushInterval bounds batch formation latency. Default 200µs.
	FlushInterval time.Duration
	// RetryInterval is the client retransmission interval. Default 3s.
	RetryInterval time.Duration
	// Scheduler selects the sP-SMR scheduling engine (ModeSPSMR only):
	// SchedScan reproduces the paper's single-scheduler bottleneck,
	// SchedIndex is the index-based early scheduler that removes it.
	Scheduler SchedulerKind
	// SchedulerQueue bounds the sP-SMR ready queue. Default 4096.
	SchedulerQueue int
	// SchedTuning switches the pipeline optimisations (reader sets,
	// work stealing, steal batch size, admission yield) off for
	// ablations; the zero value is the tuned pipeline.
	SchedTuning SchedTuning
	// Optimistic enables optimistic execution on the sP-SMR path
	// (ModeSPSMR only): coordinators push proposals to the learners
	// before phase 2 completes, replicas execute them speculatively
	// through the selected scheduling engine, and replies are released
	// when the decided order confirms the speculation (see
	// internal/optimistic). The service must implement
	// command.Versioned.
	Optimistic bool
	// OptimisticReorder, when positive, makes each replica swap every
	// Nth optimistic batch with its successor before speculating — a
	// test/ablation knob forcing optimistic/decided divergence (a
	// stable single leader never reorders on its own).
	OptimisticReorder int
	// Proxies, when positive, starts that many stateless proxy-proposers
	// (the compartmentalized ordering layer's ingress tier): clients
	// submit to a proxy, which batches frames per group and forwards one
	// ProposeBatch frame per sealed batch to the leader, cutting the
	// coordinator's inbound frames per command. Client submits fail with
	// a distinct error (multicast.ErrProxyDown) only when every proxy is
	// unreachable; a single dead proxy is routed around.
	Proxies int
	// ProxyBatch is the proxy seal threshold in commands. Default 64.
	ProxyBatch int
	// ProxyDelay bounds how long a proxy holds a partial batch. Default
	// 200µs.
	ProxyDelay time.Duration
	// FanoutDegree, when positive, starts that many decision relays per
	// group and makes leaders stripe decision (and optimistic) pushes
	// across them instead of broadcasting to every learner themselves —
	// the compartmentalized ordering layer's egress tier.
	FanoutDegree int
	// SubsetGroups declares hot multi-worker subsets that get dedicated
	// multicast groups (multi-group P-SMR only): a command whose γ
	// exactly matches a subset is ordered on its own group instead of
	// the shared serial group. cdep.AllPairs(k) covers all pairwise
	// unions. Deterministic merge positions are preserved; subsets are
	// routing only.
	SubsetGroups [][]int
	// Checkpoint enables coordinated checkpoints and replica recovery:
	// every Interval decided commands each replica quiesces its workers
	// at one deterministic log position (the engines' global-barrier
	// rendezvous; the optimistic executor's confirmed-state quiesce),
	// snapshots the service (which must implement command.Snapshotter),
	// gates learner log truncation on the stable checkpoint, and serves
	// peer catch-up — CrashReplica + RestartReplica then exercise full
	// recovery. Supported on single-ordered-stream deployments (sP-SMR,
	// SMR, optimistic sP-SMR, one-worker P-SMR); multi-group P-SMR
	// checkpoint positions are an open item.
	Checkpoint CheckpointConfig

	// CPU, when set, meters every role's busy time.
	CPU *bench.CPUMeter

	// TraceSample controls pipeline-stage tracing: every TraceSample-th
	// command (deterministically chosen by request-id hash) is stamped
	// with monotonic timestamps at each pipeline stage boundary it
	// crosses — client submit, proxy seal, leader admit, decided,
	// learner delivery, engine admission, execution, optimistic
	// confirm/rollback — and folded into per-stage latency histograms.
	// 0 samples 1 in 1024 (the default), 1 traces every command, -1
	// disables tracing entirely (no tracer is built; every stamp site
	// is a nil-receiver no-op).
	TraceSample int
	// RelaySilentAfter is the staleness horizon of the decision-relay
	// watchdog (FanoutDegree > 0): a relay whose forward counter has
	// not moved for this long while its group kept deciding is flagged
	// silent (the ordering_relay_silent counter; one increment per
	// transition). Default 500ms.
	RelaySilentAfter time.Duration
	// JournalEvents sizes the always-on flight-recorder journal (total
	// retained events across its stripes). 0 selects the default
	// (4096, ~128 KiB); -1 disables the journal and the flight
	// recorder entirely (every emit site is a nil-receiver no-op).
	JournalEvents int
	// RollbackStormThreshold is the per-tick rollback-delta above which
	// the anomaly watcher cuts a "rollback storm" diagnostic bundle
	// (Optimistic mode only). Default 256.
	RollbackStormThreshold int
}

func (c *Config) fillDefaults() error {
	if c.Mode == ModeSMR {
		c.Workers = 1
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Workers > 64 {
		return fmt.Errorf("psmr: %d workers exceed the 64-worker bitset", c.Workers)
	}
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.Acceptors <= 0 {
		c.Acceptors = 3
	}
	if c.CoordinatorCandidates <= 0 {
		c.CoordinatorCandidates = 1
	}
	if c.NewService == nil {
		return errors.New("psmr: Config.NewService is required")
	}
	if c.MergeWeight <= 0 {
		c.MergeWeight = 256
	}
	if c.SkipInterval <= 0 {
		c.SkipInterval = time.Millisecond
	}
	if c.RetryInterval <= 0 {
		c.RetryInterval = 3 * time.Second
	}
	if c.Transport == nil {
		c.Transport = transport.NewMemNetwork(1)
	}
	if c.RelaySilentAfter <= 0 {
		c.RelaySilentAfter = 500 * time.Millisecond
	}
	if c.RollbackStormThreshold <= 0 {
		c.RollbackStormThreshold = 256
	}
	return nil
}

// groupCount returns how many multicast groups the mode needs.
func (c *Config) groupCount() int {
	switch c.Mode {
	case ModePSMR:
		if c.Workers == 1 {
			// Degenerate P-SMR: a single worker needs no serial group.
			return 1
		}
		return c.Workers + len(c.SubsetGroups) + 1
	default:
		// SMR and sP-SMR order everything through one group.
		return 1
	}
}

// Cluster is a running deployment: Paxos roles plus replicas, all over
// one transport.
type Cluster struct {
	cfg     Config
	cg      *cdep.Compiled    // client-side C-G (γ over workers)
	subsets *cdep.SubsetTable // dedicated multi-worker subset groups
	groups  []multicast.GroupConfig

	acceptors []*paxos.Acceptor
	coords    []*paxos.Coordinator
	relays    []*proxy.Relay
	proxies   []*proxy.Proxy
	proxyAddr []transport.Addr

	// replMu guards the replica slots: RestartReplica swaps a slot
	// while the anomaly watcher and live metric scrapes read them.
	replMu   sync.RWMutex
	replicas []replica

	tracer  *obs.Tracer
	reg     *obs.Registry
	journal *obs.Journal
	flight  *obs.Flight

	// Relay-staleness watchdog state (FanoutDegree > 0).
	relaySilent *obs.Counter
	watchStop   chan struct{}
	watchDone   chan struct{}

	// Anomaly-watcher state (JournalEvents >= 0): learner gap stalls
	// and optimistic rollback storms trigger flight dumps.
	anomStop chan struct{}
	anomDone chan struct{}

	clientSeq uint64
	closed    bool
}

// StartCluster launches every role of a deployment and returns once
// all components are running.
func StartCluster(cfg Config) (*Cluster, error) {
	if err := cfg.fillDefaults(); err != nil {
		return nil, err
	}
	switch cfg.Mode {
	case ModePSMR, ModeSMR, ModeSPSMR:
	default:
		return nil, fmt.Errorf("psmr: unknown mode %d", int(cfg.Mode))
	}
	if cfg.Optimistic && cfg.Mode != ModeSPSMR {
		return nil, fmt.Errorf("psmr: Optimistic requires ModeSPSMR, got %v", cfg.Mode)
	}
	if cfg.Checkpoint.Enabled() && cfg.groupCount() > 1 {
		return nil, fmt.Errorf("psmr: checkpointing requires a single ordered stream (sP-SMR, SMR, or 1-worker P-SMR); %v with %d workers has %d groups",
			cfg.Mode, cfg.Workers, cfg.groupCount())
	}
	if len(cfg.SubsetGroups) > 0 && (cfg.Mode != ModePSMR || cfg.Workers == 1) {
		return nil, fmt.Errorf("psmr: SubsetGroups requires multi-group P-SMR (mode %v, %d workers has a single ordered stream)",
			cfg.Mode, cfg.Workers)
	}
	subsets, err := cdep.CompileSubsets(cfg.Workers, cfg.SubsetGroups)
	if err != nil {
		return nil, fmt.Errorf("psmr: %w", err)
	}

	// The client-side C-G is always compiled against the
	// multiprogramming level; sP-SMR and SMR route every request
	// through their single group regardless, and sP-SMR's scheduler
	// re-derives conflicts from the same spec.
	var placementOpts []cdep.Option
	if cfg.Placement != nil {
		placementOpts = append(placementOpts, cdep.WithPlacement(cfg.Placement))
	}
	cg, err := cdep.Compile(cfg.Spec, cfg.Workers, placementOpts...)
	if err != nil {
		return nil, fmt.Errorf("psmr: compile C-Dep: %w", err)
	}

	cl := &Cluster{cfg: cfg, cg: cg, subsets: subsets, reg: obs.NewRegistry()}
	if cfg.JournalEvents >= 0 {
		// Always-on black box: the journal samples per-command events
		// at the tracer's rate so trace and journal agree on which
		// commands are interesting.
		cl.journal = obs.NewJournal(obs.JournalConfig{
			Events: cfg.JournalEvents,
			Sample: obs.EffectiveSample(cfg.TraceSample),
		})
	}
	if cfg.TraceSample >= 0 {
		// The trace folds (and the total histogram closes) at the last
		// stage a command crosses: optimistic confirmation when
		// speculation is on, execution end otherwise.
		final := obs.StageExecEnd
		if cfg.Optimistic {
			final = obs.StageConfirm
		}
		cl.tracer = obs.NewTracer(obs.TracerConfig{Sample: cfg.TraceSample, Final: final})
		cl.tracer.AttachJournal(cl.journal)
	}
	if cl.journal != nil {
		cl.flight = obs.NewFlight(obs.FlightConfig{
			Registry: cl.reg,
			Tracer:   cl.tracer,
			Journal:  cl.journal,
		})
	}
	if err := cl.startOrdering(); err != nil {
		cl.Close()
		return nil, err
	}
	if err := cl.startProxies(); err != nil {
		cl.Close()
		return nil, err
	}
	if err := cl.startReplicas(); err != nil {
		cl.Close()
		return nil, err
	}
	cl.registerMetrics()
	if cl.cfg.FanoutDegree > 0 {
		cl.watchStop = make(chan struct{})
		cl.watchDone = make(chan struct{})
		go cl.watchRelays()
	}
	if cl.flight != nil {
		cl.anomStop = make(chan struct{})
		cl.anomDone = make(chan struct{})
		go cl.watchAnomalies()
	}
	return cl, nil
}

// startOrdering launches acceptors and coordinators for every group.
func (cl *Cluster) startOrdering() error {
	cfg := &cl.cfg
	nGroups := cfg.groupCount()

	// Learner push targets per group: one learner endpoint per
	// (replica, group), named by core.LearnerAddr.
	for g := 0; g < nGroups; g++ {
		gid := uint32(g)
		accAddrs := make([]transport.Addr, cfg.Acceptors)
		for i := range accAddrs {
			accAddrs[i] = transport.Addr(fmt.Sprintf("g%d/acc%d", g, i))
		}
		candAddrs := make([]transport.Addr, cfg.CoordinatorCandidates)
		for i := range candAddrs {
			candAddrs[i] = transport.Addr(fmt.Sprintf("g%d/coord%d", g, i))
		}
		var pushAddrs []transport.Addr
		for r := 0; r < cfg.Replicas; r++ {
			pushAddrs = append(pushAddrs, core.LearnerAddr(r, gid))
		}
		// Standby candidates track decisions for retransmission.
		pushAddrs = append(pushAddrs, candAddrs[1:]...)

		// Decision fan-out tier: the leader stripes its pushes across
		// relays, each re-broadcasting to the full learner set.
		var relayAddrs []transport.Addr
		for i := 0; i < cfg.FanoutDegree; i++ {
			addr := transport.Addr(fmt.Sprintf("g%d/relay%d", g, i))
			rl, err := proxy.StartRelay(proxy.RelayConfig{
				Addr:      addr,
				ID:        uint64(g)<<32 | uint64(i),
				Targets:   pushAddrs,
				Transport: cfg.Transport,
				Journal:   cl.journal,
			})
			if err != nil {
				return fmt.Errorf("psmr: start relay g%d/%d: %w", g, i, err)
			}
			cl.relays = append(cl.relays, rl)
			relayAddrs = append(relayAddrs, addr)
		}

		for i := range accAddrs {
			a, err := paxos.StartAcceptor(paxos.AcceptorConfig{
				GroupID:   gid,
				ID:        uint32(i),
				Addr:      accAddrs[i],
				Transport: cfg.Transport,
				CPU:       cfg.CPU.Role("acceptor"),
			})
			if err != nil {
				return fmt.Errorf("psmr: start acceptor g%d/%d: %w", g, i, err)
			}
			cl.acceptors = append(cl.acceptors, a)
		}
		// Multi-stream merges need every merged group to pad its slot
		// rate; single-group modes never merge, so padding is waste.
		skip := cfg.SkipInterval
		if nGroups == 1 {
			skip = 0
		}
		for i := range candAddrs {
			co, err := paxos.StartCoordinator(paxos.CoordinatorConfig{
				GroupID:       gid,
				CandidateIdx:  i,
				Candidates:    candAddrs,
				Acceptors:     accAddrs,
				Learners:      pushAddrs,
				Relays:        relayAddrs,
				Transport:     cfg.Transport,
				BatchMaxBytes: cfg.BatchMaxBytes,
				FlushInterval: cfg.FlushInterval,
				SkipInterval:  skip,
				SkipSlots:     uint32(cfg.MergeWeight),
				Optimistic:    cfg.Optimistic,
				CPU:           cfg.CPU.Role("coordinator"),
				Trace:         cl.tracer,
				Journal:       cl.journal,
			})
			if err != nil {
				return fmt.Errorf("psmr: start coordinator g%d/%d: %w", g, i, err)
			}
			cl.coords = append(cl.coords, co)
		}
		cl.groups = append(cl.groups, multicast.GroupConfig{
			ID:           gid,
			Coordinators: candAddrs,
			Acceptors:    accAddrs,
		})
	}
	return nil
}

// startProxies launches the proxy-proposer tier (Config.Proxies > 0):
// stateless ingress proxies clients submit through.
func (cl *Cluster) startProxies() error {
	cfg := &cl.cfg
	for i := 0; i < cfg.Proxies; i++ {
		addr := ProxyAddr(i)
		p, err := proxy.Start(proxy.Config{
			Addr:      addr,
			Groups:    cl.groups,
			Transport: cfg.Transport,
			BatchMax:  cfg.ProxyBatch,
			Delay:     cfg.ProxyDelay,
			CPU:       cfg.CPU.Role("proxy"),
			Trace:     cl.tracer,
			Journal:   cl.journal,
		})
		if err != nil {
			return fmt.Errorf("psmr: start proxy %d: %w", i, err)
		}
		cl.proxies = append(cl.proxies, p)
		cl.proxyAddr = append(cl.proxyAddr, addr)
	}
	return nil
}

// ProxyAddr names proxy i's endpoint; the cluster wiring and the TCP
// daemons use the same scheme so remote clients can reconstruct it.
func ProxyAddr(i int) transport.Addr {
	return transport.Addr(fmt.Sprintf("proxy%d", i))
}

// replica is what the cluster needs of every execution engine: the
// P-SMR/SMR core replica, the sP-SMR replica and the optimistic
// replica. Engine-specific statistics (scheduler stats, speculation
// counters) are reached by type assertion.
type replica interface {
	Close() error
	GapStalls() uint64
	CheckpointCounters() checkpoint.Counters
}

// schedReplica is a replica driven by a sched engine (sP-SMR, with or
// without speculation).
type schedReplica interface {
	SchedStats() (stolen uint64, raided int64)
}

// startReplicas launches the mode-specific execution engines.
func (cl *Cluster) startReplicas() error {
	cfg := &cl.cfg
	cl.replicas = make([]replica, cfg.Replicas)
	for r := 0; r < cfg.Replicas; r++ {
		if err := cl.startReplica(r, nil); err != nil {
			return err
		}
	}
	return nil
}

// startReplica launches (or, on recovery, relaunches) replica r.
// peers, when non-empty, are live replicas' state-transfer endpoints
// the new replica bootstraps from.
func (cl *Cluster) startReplica(r int, peers []transport.Addr) error {
	cfg := &cl.cfg
	var (
		rep replica
		err error
	)
	switch {
	case cfg.Mode == ModeSPSMR && cfg.Optimistic:
		rep, err = optimistic.StartReplica(optimistic.ReplicaConfig{
			ReplicaID:    r,
			Workers:      cfg.Workers,
			Service:      cfg.NewService(),
			Spec:         cfg.Spec,
			Group:        cl.groups[0],
			Transport:    cfg.Transport,
			Scheduler:    cfg.Scheduler,
			Tuning:       cfg.SchedTuning,
			QueueBound:   cfg.SchedulerQueue,
			ReorderEvery: cfg.OptimisticReorder,
			Checkpoint:   cfg.Checkpoint,
			RecoverPeers: peers,
			CPU:          cfg.CPU,
			Trace:        cl.tracer,
			Journal:      cl.journal,
		})
	case cfg.Mode == ModeSPSMR:
		rep, err = spsmr.StartReplica(spsmr.ReplicaConfig{
			ReplicaID:    r,
			Workers:      cfg.Workers,
			Service:      cfg.NewService(),
			Spec:         cfg.Spec,
			Group:        cl.groups[0],
			Transport:    cfg.Transport,
			Scheduler:    cfg.Scheduler,
			QueueBound:   cfg.SchedulerQueue,
			Tuning:       cfg.SchedTuning,
			Checkpoint:   cfg.Checkpoint,
			RecoverPeers: peers,
			CPU:          cfg.CPU,
			Trace:        cl.tracer,
			Journal:      cl.journal,
		})
	default:
		rep, err = core.StartReplica(core.ReplicaConfig{
			ReplicaID:    r,
			Workers:      cfg.Workers,
			Service:      cfg.NewService(),
			Groups:       cl.groups,
			Subsets:      cl.subsets,
			Transport:    cfg.Transport,
			MergeWeight:  cfg.MergeWeight,
			Checkpoint:   cfg.Checkpoint,
			RecoverPeers: peers,
			CPU:          cfg.CPU,
			Trace:        cl.tracer,
			Journal:      cl.journal,
		})
	}
	if err != nil {
		return fmt.Errorf("psmr: start %v replica %d: %w", cfg.Mode, r, err)
	}
	cl.replMu.Lock()
	cl.replicas[r] = rep
	cl.replMu.Unlock()
	return nil
}

// NewClient creates a client proxy bound to this cluster. Client ids
// are allocated sequentially; pass NewClientID for explicit control.
func (cl *Cluster) NewClient() (*core.Client, error) {
	cl.clientSeq++
	return cl.NewClientID(cl.clientSeq)
}

// NewClientID creates a client proxy with an explicit unique id.
// Single-group modes (SMR, sP-SMR) route every request to group 0
// through the proxy's physical-group mapping; the γ the proxy computes
// still rides along in the request for the schedulers' benefit.
func (cl *Cluster) NewClientID(id uint64) (*core.Client, error) {
	sender := multicast.NewSender(cl.cfg.Transport, cl.groups)
	if len(cl.proxyAddr) > 0 {
		sender.UseProxies(cl.proxyAddr)
	}
	sender.SetTracer(cl.tracer)
	return core.NewClient(core.ClientConfig{
		ID:            id,
		Sender:        sender,
		CG:            cl.cg,
		Transport:     cl.cfg.Transport,
		RetryInterval: cl.cfg.RetryInterval,
		Seed:          int64(id),
		Subsets:       cl.subsets,
	})
}

// Transport exposes the cluster's network (fault injection in tests
// when the transport is a MemNetwork).
func (cl *Cluster) Transport() *transport.MemNetwork {
	mem, _ := cl.cfg.Transport.(*transport.MemNetwork)
	return mem
}

// Groups exposes the group wiring (diagnostics, tools).
func (cl *Cluster) Groups() []multicast.GroupConfig { return cl.groups }

// CoordinatorStatus returns the status of group g's candidate i.
func (cl *Cluster) CoordinatorStatus(g, i int) paxos.Status {
	return cl.coords[g*cl.cfg.CoordinatorCandidates+i].Status()
}

// CrashCoordinator kills group g's candidate i (fail-over tests).
func (cl *Cluster) CrashCoordinator(g, i int) {
	co := cl.coords[g*cl.cfg.CoordinatorCandidates+i]
	_ = co.Close()
	if mem := cl.Transport(); mem != nil {
		mem.Drop(cl.groups[g].Coordinators[i])
		mem.Drop(paxos.ProtoAddr(cl.groups[g].Coordinators[i]))
	}
}

// CrashAcceptor kills acceptor i of group g.
func (cl *Cluster) CrashAcceptor(g, i int) {
	a := cl.acceptors[g*cl.cfg.Acceptors+i]
	_ = a.Close()
	if mem := cl.Transport(); mem != nil {
		mem.Drop(cl.groups[g].Acceptors[i])
	}
}

// CrashProxy kills proxy i (proxy fail-over tests): clients routing
// through it rotate to a survivor; with no survivors their submits
// fail with multicast.ErrProxyDown.
func (cl *Cluster) CrashProxy(i int) {
	_ = cl.proxies[i].Close()
	if mem := cl.Transport(); mem != nil {
		mem.Drop(cl.proxyAddr[i])
	}
}

// OrderingCounters aggregates the compartmentalized ordering layer's
// observability counters: per-proxy forwarding work plus the
// coordinators' inbound admission totals (all candidates; standbys
// contribute zero).
type OrderingCounters struct {
	// Proxies holds one counter snapshot per proxy, in proxy order.
	Proxies []proxy.Counters
	// Leader is the admission work summed over every coordinator.
	Leader paxos.CoordinatorCounters
}

// OrderingCounters snapshots the ordering layer's counters.
func (cl *Cluster) OrderingCounters() OrderingCounters {
	var oc OrderingCounters
	for _, p := range cl.proxies {
		oc.Proxies = append(oc.Proxies, p.Counters())
	}
	for _, co := range cl.coords {
		c := co.Counters()
		oc.Leader.InboundFrames += c.InboundFrames
		oc.Leader.InboundCommands += c.InboundCommands
	}
	return oc
}

// CrashReplica kills replica r (clients keep being served by the
// others).
func (cl *Cluster) CrashReplica(r int) {
	cl.replMu.RLock()
	rep := cl.replicas[r]
	cl.replMu.RUnlock()
	_ = rep.Close()
}

// RestartReplica restarts a crashed (or still-running — it is closed
// first) replica from its live peers: the new service instance
// (Config.NewService) restores the newest peer checkpoint, replays the
// decided suffix, and rejoins live delivery. Requires
// Config.Checkpoint enabled.
func (cl *Cluster) RestartReplica(r int) error {
	cfg := &cl.cfg
	if !cfg.Checkpoint.Enabled() {
		return fmt.Errorf("psmr: RestartReplica requires Config.Checkpoint enabled")
	}
	if r < 0 || r >= cfg.Replicas {
		return fmt.Errorf("psmr: replica %d outside [0,%d)", r, cfg.Replicas)
	}
	cl.CrashReplica(r) // idempotent: frees the replica's endpoints
	var peers []transport.Addr
	for o := 0; o < cfg.Replicas; o++ {
		if o != r {
			peers = append(peers, checkpoint.ServerAddr(o))
		}
	}
	return cl.startReplica(r, peers)
}

// CheckpointCounters returns each replica's checkpoint statistics
// (zero-valued unless Config.Checkpoint is enabled).
func (cl *Cluster) CheckpointCounters() []CheckpointCounters {
	cl.replMu.RLock()
	defer cl.replMu.RUnlock()
	var counters []CheckpointCounters
	for _, rep := range cl.replicas {
		if rep != nil {
			counters = append(counters, rep.CheckpointCounters())
		}
	}
	return counters
}

// OptimisticCounters returns each optimistic replica's speculation
// counters (empty unless Config.Optimistic).
func (cl *Cluster) OptimisticCounters() []OptimisticCounters {
	cl.replMu.RLock()
	defer cl.replMu.RUnlock()
	var counters []OptimisticCounters
	for _, rep := range cl.replicas {
		if rep, ok := rep.(*optimistic.Replica); ok {
			counters = append(counters, rep.Counters())
		}
	}
	return counters
}

// Registry exposes the cluster's metrics registry: every counter the
// scattered per-tier snapshots report, the relay watchdog, CPU-meter
// busy time and — when tracing is on — the per-stage latency
// histograms, all behind one name+labels namespace. Serve it with
// obs.ServeMux for live Prometheus/expvar/pprof exposition.
func (cl *Cluster) Registry() *obs.Registry { return cl.reg }

// Tracer exposes the pipeline-stage tracer (nil when TraceSample < 0).
func (cl *Cluster) Tracer() *obs.Tracer { return cl.tracer }

// Journal exposes the flight-recorder event journal (nil when
// JournalEvents < 0).
func (cl *Cluster) Journal() *obs.Journal { return cl.journal }

// Flight exposes the flight recorder: anomaly-triggered diagnostic
// bundles plus operator-initiated dumps (nil when JournalEvents < 0).
func (cl *Cluster) Flight() *obs.Flight { return cl.flight }

// Metrics returns one coherent snapshot of every registered metric.
func (cl *Cluster) Metrics() []obs.Sample { return cl.reg.Snapshot() }

// RelaySilent reports how many silent-relay transitions the watchdog
// has flagged (zero when FanoutDegree is 0).
func (cl *Cluster) RelaySilent() uint64 { return cl.relaySilent.Load() }

// registerMetrics folds every tier's counters into the cluster
// registry as live function-backed metrics. Reads are atomic counter
// loads on the instrumented components, so scrapes never contend with
// the hot path.
func (cl *Cluster) registerMetrics() {
	r := cl.reg
	cl.tracer.Register(r)
	cl.journal.Register(r)
	cl.flight.Register(r)
	cl.relaySilent = r.Counter("ordering_relay_silent", "")

	for i, p := range cl.proxies {
		p := p
		labels := fmt.Sprintf(`proxy="%d"`, i)
		r.FuncCounter("proxy_queued_total", labels, func() uint64 { return p.Counters().Queued })
		r.FuncCounter("proxy_batches_total", labels, func() uint64 { return p.Counters().Batches })
		r.FuncCounter("proxy_commands_total", labels, func() uint64 { return p.Counters().Commands })
		r.FuncCounter("proxy_shed_total", labels, func() uint64 { return p.Counters().Shed })
	}

	coords := cl.coords
	sumCoord := func(pick func(paxos.CoordinatorCounters) uint64) func() uint64 {
		return func() uint64 {
			var total uint64
			for _, co := range coords {
				total += pick(co.Counters())
			}
			return total
		}
	}
	r.FuncCounter("ordering_leader_inbound_frames_total", "",
		sumCoord(func(c paxos.CoordinatorCounters) uint64 { return c.InboundFrames }))
	r.FuncCounter("ordering_leader_inbound_commands_total", "",
		sumCoord(func(c paxos.CoordinatorCounters) uint64 { return c.InboundCommands }))
	r.FuncCounter("ordering_decided_total", "",
		sumCoord(func(c paxos.CoordinatorCounters) uint64 { return c.Decided }))

	if d := cl.cfg.FanoutDegree; d > 0 {
		for idx, rl := range cl.relays {
			rl := rl
			labels := fmt.Sprintf(`group="%d",relay="%d"`, idx/d, idx%d)
			r.FuncCounter("ordering_relay_forwarded_total", labels, rl.Forwarded)
			// Idle age in seconds since the relay last forwarded a
			// decision (0 until its first forward) — the per-stripe
			// last-delivery gauge the staleness test watches.
			r.FuncGauge("ordering_relay_idle_seconds", labels, func() float64 {
				last := rl.LastForward()
				if last.IsZero() {
					return 0
				}
				return time.Since(last).Seconds()
			})
		}
	}

	if cl.cfg.Checkpoint.Enabled() {
		sumCkpt := func(pick func(checkpoint.Counters) uint64) func() uint64 {
			return func() uint64 {
				var total uint64
				for _, c := range cl.CheckpointCounters() {
					total += pick(c)
				}
				return total
			}
		}
		r.FuncCounter("checkpoint_snapshots_total", "",
			sumCkpt(func(c checkpoint.Counters) uint64 { return c.Checkpoints }))
		r.FuncCounter("checkpoint_restores_total", "",
			sumCkpt(func(c checkpoint.Counters) uint64 { return c.Restores }))
		r.FuncCounter("checkpoint_pause_ns_total", "",
			sumCkpt(func(c checkpoint.Counters) uint64 { return c.TotalPauseNs }))
		// Pause and size report the worst replica, not a sum.
		worstCkpt := func() (agg checkpoint.Counters) {
			for _, c := range cl.CheckpointCounters() {
				agg.Add(c)
			}
			return agg
		}
		r.FuncGauge("checkpoint_pause_max_ns", "", func() float64 { return float64(worstCkpt().MaxPauseNs) })
		r.FuncGauge("checkpoint_snapshot_bytes", "", func() float64 { return float64(worstCkpt().LastBytes) })
	}

	if cl.cfg.Optimistic {
		sumOpt := func(pick func(optimistic.Counters) uint64) func() uint64 {
			return func() uint64 {
				var total uint64
				for _, c := range cl.OptimisticCounters() {
					total += pick(c)
				}
				return total
			}
		}
		r.FuncCounter("optimistic_speculated_total", "",
			sumOpt(func(c optimistic.Counters) uint64 { return c.Speculated }))
		r.FuncCounter("optimistic_hits_total", "",
			sumOpt(func(c optimistic.Counters) uint64 { return c.Hits }))
		r.FuncCounter("optimistic_misses_total", "",
			sumOpt(func(c optimistic.Counters) uint64 { return c.Misses }))
		r.FuncCounter("optimistic_rollbacks_total", "",
			sumOpt(func(c optimistic.Counters) uint64 { return c.Rollbacks }))
		r.FuncCounter("optimistic_rolled_back_total", "",
			sumOpt(func(c optimistic.Counters) uint64 { return c.RolledBack }))
		r.FuncCounter("optimistic_ghost_evictions_total", "",
			sumOpt(func(c optimistic.Counters) uint64 { return c.GhostEvictions }))
		r.FuncGauge("optimistic_rollback_depth_max", "", func() float64 {
			var agg optimistic.Counters
			for _, c := range cl.OptimisticCounters() {
				agg.Add(c)
			}
			return float64(agg.MaxRollbackDepth)
		})
	}

	if cl.cfg.Mode == ModeSPSMR {
		r.FuncCounter("sched_stolen_total", "", func() uint64 {
			stolen, _ := cl.schedStats()
			return stolen
		})
		r.FuncGauge("sched_raided", "", func() float64 {
			_, raided := cl.schedStats()
			return float64(raided)
		})
	}

	if cpu := cl.cfg.CPU; cpu != nil {
		busy, _ := cpu.Snapshot()
		for role := range busy {
			role := role
			r.FuncGauge("cpu_role_busy_seconds", fmt.Sprintf(`role="%s"`, role),
				func() float64 {
					b, _ := cpu.Snapshot()
					return b[role].Seconds()
				})
		}
	}
}

// schedStats sums the work-stealing statistics across every
// engine-driven replica.
func (cl *Cluster) schedStats() (stolen uint64, raided int64) {
	cl.replMu.RLock()
	defer cl.replMu.RUnlock()
	for _, rep := range cl.replicas {
		if rep, ok := rep.(schedReplica); ok {
			s, ra := rep.SchedStats()
			stolen += s
			raided += ra
		}
	}
	return stolen, raided
}

// watchRelays is the relay-staleness watchdog (FanoutDegree > 0): a
// relay whose forward counter stopped moving for RelaySilentAfter
// while its group kept deciding has lost its stripe — learners survive
// via gap retransmission, but tail latency degrades silently. The
// watchdog counts one ordering_relay_silent transition per stall and
// re-arms when the relay forwards again.
func (cl *Cluster) watchRelays() {
	defer close(cl.watchDone)
	cfg := &cl.cfg
	nGroups := len(cl.relays) / cfg.FanoutDegree
	lastDecided := make([]uint64, nGroups)
	lastForwarded := make([]uint64, len(cl.relays))
	silent := make([]bool, len(cl.relays))
	ticker := time.NewTicker(cfg.RelaySilentAfter / 2)
	defer ticker.Stop()
	for {
		select {
		case <-cl.watchStop:
			return
		case <-ticker.C:
		}
		for g := 0; g < nGroups; g++ {
			var decided uint64
			for i := 0; i < cfg.CoordinatorCandidates; i++ {
				decided += cl.coords[g*cfg.CoordinatorCandidates+i].Counters().Decided
			}
			groupActive := decided > lastDecided[g]
			lastDecided[g] = decided
			for i := 0; i < cfg.FanoutDegree; i++ {
				idx := g*cfg.FanoutDegree + i
				rl := cl.relays[idx]
				fwd := rl.Forwarded()
				if fwd != lastForwarded[idx] {
					lastForwarded[idx] = fwd
					silent[idx] = false
					continue
				}
				if silent[idx] || !groupActive {
					continue
				}
				if last := rl.LastForward(); last.IsZero() || time.Since(last) > cfg.RelaySilentAfter {
					silent[idx] = true
					cl.relaySilent.Inc()
					cl.journal.Emit(obs.EvRelaySilent, uint64(g), uint64(i))
					cl.flight.Trigger(fmt.Sprintf("ordering_relay_silent g%d/relay%d", g, i))
				}
			}
		}
	}
}

// watchAnomalies is the flight recorder's trigger loop for the
// execution-side black-box conditions the relay watchdog cannot see:
// learner gap stalls (a replica waiting on retransmission while its
// peers advance) and optimistic rollback storms (speculation
// mis-ordered so often that rollbacks burn CPU without confirming
// work). Each tick compares the
// counters against the previous tick and cuts a diagnostic bundle on a
// fresh burst; Flight's per-reason cooldown keeps a sustained storm
// from flooding the bundle ring.
func (cl *Cluster) watchAnomalies() {
	defer close(cl.anomDone)
	cfg := &cl.cfg
	ticker := time.NewTicker(cfg.RelaySilentAfter / 2)
	defer ticker.Stop()
	var lastStalls, lastRollbacks uint64
	for {
		select {
		case <-cl.anomStop:
			return
		case <-ticker.C:
		}
		if stalls := cl.gapStalls(); stalls > lastStalls {
			lastStalls = stalls
			cl.flight.Trigger("learner_gap_stall")
		}
		if cfg.Optimistic {
			var rollbacks uint64
			for _, c := range cl.OptimisticCounters() {
				rollbacks += c.Rollbacks
			}
			if rollbacks-lastRollbacks > uint64(cfg.RollbackStormThreshold) {
				cl.flight.Trigger("optimistic_rollback_storm")
			}
			lastRollbacks = rollbacks
		}
	}
}

// gapStalls sums learner gap-stall transitions across every replica.
func (cl *Cluster) gapStalls() uint64 {
	cl.replMu.RLock()
	defer cl.replMu.RUnlock()
	var total uint64
	for _, rep := range cl.replicas {
		if rep != nil {
			total += rep.GapStalls()
		}
	}
	return total
}

// CrashRelay kills relay i of group g (staleness-detection tests):
// learners keep completing via gap retransmission while the watchdog
// flags the dead stripe.
func (cl *Cluster) CrashRelay(g, i int) {
	rl := cl.relays[g*cl.cfg.FanoutDegree+i]
	_ = rl.Close()
	if mem := cl.Transport(); mem != nil {
		mem.Drop(transport.Addr(fmt.Sprintf("g%d/relay%d", g, i)))
	}
}

// Close shuts the whole deployment down.
func (cl *Cluster) Close() error {
	if cl.closed {
		return nil
	}
	cl.closed = true
	if cl.watchStop != nil {
		close(cl.watchStop)
		<-cl.watchDone
	}
	if cl.anomStop != nil {
		close(cl.anomStop)
		<-cl.anomDone
	}
	for _, rep := range cl.replicas {
		if rep != nil {
			_ = rep.Close()
		}
	}
	for _, p := range cl.proxies {
		_ = p.Close()
	}
	for _, co := range cl.coords {
		_ = co.Close()
	}
	for _, rl := range cl.relays {
		_ = rl.Close()
	}
	for _, a := range cl.acceptors {
		_ = a.Close()
	}
	return cl.cfg.Transport.Close()
}

// Package experiment assembles the deployments and workloads of the
// paper's evaluation (§VII): one function per figure, shared between
// the testing.B benchmarks (bench_test.go) and the full-scale harness
// (cmd/psmr-bench). Every technique runs on its own in-process network
// with its own CPU meter; the harness reports throughput in Kcps, mean
// latency, a latency CDF and per-role CPU usage — the four panels the
// paper plots.
package experiment

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	psmr "github.com/psmr/psmr"
	"github.com/psmr/psmr/internal/bench"
	"github.com/psmr/psmr/internal/cdep"
	"github.com/psmr/psmr/internal/command"
	"github.com/psmr/psmr/internal/direct"
	"github.com/psmr/psmr/internal/kvstore"
	"github.com/psmr/psmr/internal/lockstore"
	"github.com/psmr/psmr/internal/netfs"
	"github.com/psmr/psmr/internal/norep"
	"github.com/psmr/psmr/internal/obs"
	"github.com/psmr/psmr/internal/transport"
	"github.com/psmr/psmr/internal/workload"
)

// Technique identifies one of the compared systems (paper §VI-B).
type Technique int

// The five techniques of the key-value store comparison.
const (
	PSMR Technique = iota + 1
	SPSMR
	SMR
	NoRep
	BDB // the lock-based store baseline
)

func (t Technique) String() string {
	switch t {
	case PSMR:
		return "P-SMR"
	case SPSMR:
		return "sP-SMR"
	case SMR:
		return "SMR"
	case NoRep:
		return "no-rep"
	case BDB:
		return "BDB"
	default:
		return fmt.Sprintf("Technique(%d)", int(t))
	}
}

// KVSetup parameterises one key-value store measurement.
type KVSetup struct {
	Technique Technique
	// Threads is the worker/thread count (the paper's x-axis in
	// Figures 5 and 7; scheduler excluded for sP-SMR/no-rep).
	Threads int
	// Keys preloads the database (the paper uses 10M).
	Keys int
	// Clients and Window form the closed loop (the paper's window is 50).
	Clients int
	Window  int
	// Gen builds the per-setup operation generator from the preloaded
	// key space.
	Gen func(keys workload.KeyGen) workload.Generator
	// KeyGen overrides the default uniform key selection.
	KeyGen workload.KeyGen
	// Spec overrides the kvstore C-Dep (nil keeps kvstore.Spec()); the
	// multi-key ablation swaps in its barrier-C-G baseline here.
	Spec *cdep.Spec
	// Tag is appended to the reported technique name.
	Tag string
	// Scheduler selects the scheduling engine on the sP-SMR and no-rep
	// paths (scan reproduces the paper's bottleneck; index removes it).
	Scheduler psmr.SchedulerKind
	// Tuning switches the pipeline optimisations off for ablation
	// (reader sets, work stealing).
	Tuning psmr.SchedTuning
	// Optimistic enables optimistic (speculative) execution on the
	// sP-SMR path; the result's Extra map then carries the measured
	// hit rate and rollback counters.
	Optimistic bool
	// OptimisticReorder is the optimistic-stream perturbation knob
	// (swap every Nth optimistic batch), for rollback-path ablations.
	OptimisticReorder int
	// CheckpointInterval enables coordinated checkpoints every N
	// decided commands (0 = off); the result's Extra map then carries
	// checkpoint count, quiesce-pause and snapshot-size columns.
	CheckpointInterval int
	// Proxies inserts a proxy-proposer tier of N stateless ingress
	// proxies between clients and the coordinators (0 = direct
	// submission); the result's Extra map then carries the per-proxy
	// queue/batch counters and the leader's frames-per-command ratio.
	Proxies int
	// ProxyBatch and ProxyDelay are the proxy sealing knobs (items per
	// batch; max delay before a partial batch seals).
	ProxyBatch int
	ProxyDelay time.Duration
	// Fanout stripes decided-value delivery across N relay processes
	// per group instead of the coordinator broadcasting serially
	// (0 = direct broadcast).
	Fanout int
	// TraceSample sets the cluster's pipeline-stage trace sampling
	// (0 = the 1/1024 default, 1 = every command, -1 = off). When a
	// tracer runs, the result carries the per-stage breakdown table
	// and the per-stage latency columns in Extra.
	TraceSample int
	// EmbedObs additionally folds the cluster's full metrics-registry
	// snapshot into the result's Extra map (one reg_-prefixed column
	// per sample) — the obs ablation's JSON rows.
	EmbedObs bool
	// JournalOff disables the always-on flight-recorder journal
	// (JournalEvents: -1), the baseline side of the flight gate.
	JournalOff bool
	// TagTuning appends the tuning label to the reported technique
	// name (used by the admission ablation).
	TagTuning bool
	// Duration/Warmup control the measurement interval.
	Duration time.Duration
	Warmup   time.Duration
	// Placement optionally pins hot keys to groups (P-SMR C-G hint).
	Placement map[uint64]int
}

func (s *KVSetup) fillDefaults() {
	if s.Threads <= 0 {
		s.Threads = 1
	}
	if s.Keys <= 0 {
		s.Keys = 100_000
	}
	if s.Clients <= 0 {
		s.Clients = 6
	}
	if s.Window <= 0 {
		s.Window = 50
	}
	if s.Duration <= 0 {
		s.Duration = 2 * time.Second
	}
	if s.Warmup <= 0 {
		s.Warmup = 300 * time.Millisecond
	}
	if s.KeyGen == nil {
		s.KeyGen = workload.Uniform{N: uint64(s.Keys)}
	}
	if s.Gen == nil {
		s.Gen = workload.KVReads
	}
}

// journalEvents maps the JournalOff knob to the cluster config value
// (0 = default journal on, -1 = off).
func journalEvents(off bool) int {
	if off {
		return -1
	}
	return 0
}

// RunKV measures one technique under one key-value workload.
func RunKV(setup KVSetup) (*bench.Result, error) {
	setup.fillDefaults()
	cpu := bench.NewCPUMeter()
	newStore := func() command.Service {
		st := kvstore.New()
		st.Preload(setup.Keys)
		return st
	}
	spec := kvstore.Spec()
	if setup.Spec != nil {
		spec = *setup.Spec
	}

	var (
		invokers      []workload.Invoker
		servers       int
		cleanup       func()
		optCounters   func() []psmr.OptimisticCounters
		ckptCounters  func() []psmr.CheckpointCounters
		orderCounters func() psmr.OrderingCounters
		tracer        func() *obs.Tracer
		registry      func() *obs.Registry
	)
	switch setup.Technique {
	case PSMR, SPSMR, SMR:
		mode := psmr.ModePSMR
		switch setup.Technique {
		case SPSMR:
			mode = psmr.ModeSPSMR
		case SMR:
			mode = psmr.ModeSMR
		}
		cluster, err := psmr.StartCluster(psmr.Config{
			Mode:              mode,
			Workers:           setup.Threads,
			Replicas:          2,
			NewService:        newStore,
			Spec:              spec,
			Placement:         setup.Placement,
			Scheduler:         setup.Scheduler,
			SchedTuning:       setup.Tuning,
			Optimistic:        setup.Optimistic,
			OptimisticReorder: setup.OptimisticReorder,
			Checkpoint:        psmr.CheckpointConfig{Interval: setup.CheckpointInterval},
			Proxies:           setup.Proxies,
			ProxyBatch:        setup.ProxyBatch,
			ProxyDelay:        setup.ProxyDelay,
			FanoutDegree:      setup.Fanout,
			CPU:               cpu,
			TraceSample:       setup.TraceSample,
			JournalEvents:     journalEvents(setup.JournalOff),
		})
		if err != nil {
			return nil, fmt.Errorf("start %v cluster: %w", setup.Technique, err)
		}
		cleanup = func() { _ = cluster.Close() }
		servers = 2
		optCounters = cluster.OptimisticCounters
		ckptCounters = cluster.CheckpointCounters
		orderCounters = cluster.OrderingCounters
		tracer = cluster.Tracer
		registry = cluster.Registry
		for i := 0; i < setup.Clients; i++ {
			c, err := cluster.NewClient()
			if err != nil {
				cleanup()
				return nil, err
			}
			invokers = append(invokers, c)
		}
	case NoRep:
		net := transport.NewMemNetwork(1)
		server, err := norep.StartServer(norep.ServerConfig{
			Addr:      "norep/server",
			Workers:   setup.Threads,
			Service:   newStore(),
			Spec:      spec,
			Transport: net,
			Scheduler: setup.Scheduler,
			Tuning:    setup.Tuning,
			CPU:       cpu,
		})
		if err != nil {
			return nil, fmt.Errorf("start no-rep: %w", err)
		}
		cleanup = func() { _ = server.Close(); _ = net.Close() }
		servers = 1
		for i := 0; i < setup.Clients; i++ {
			c, err := direct.NewClient(direct.ClientConfig{
				ID:        uint64(i + 1),
				Target:    "norep/server",
				Transport: net,
			})
			if err != nil {
				cleanup()
				return nil, err
			}
			invokers = append(invokers, c)
		}
	case BDB:
		net := transport.NewMemNetwork(1)
		server, err := lockstore.StartServer(lockstore.ServerConfig{
			Threads:   setup.Threads,
			Service:   newStore(),
			Spec:      kvstore.Spec(),
			Transport: net,
			CPU:       cpu,
		})
		if err != nil {
			return nil, fmt.Errorf("start lockstore: %w", err)
		}
		cleanup = func() { _ = server.Close(); _ = net.Close() }
		servers = 1
		for i := 0; i < setup.Clients; i++ {
			// Clients stick to one server thread, round-robin.
			c, err := direct.NewClient(direct.ClientConfig{
				ID:        uint64(i + 1),
				Target:    lockstore.ThreadAddr("lockstore", i%setup.Threads),
				Transport: net,
			})
			if err != nil {
				cleanup()
				return nil, err
			}
			invokers = append(invokers, c)
		}
	default:
		return nil, fmt.Errorf("unknown technique %v", setup.Technique)
	}
	defer cleanup()

	ops, elapsed, hist := workload.Run(workload.RunnerConfig{
		Clients:        invokers,
		Window:         setup.Window,
		Gen:            setup.Gen(setup.KeyGen),
		Duration:       setup.Duration,
		Warmup:         setup.Warmup,
		Seed:           7,
		OnMeasureStart: cpu.Reset,
	})
	byRole, _ := cpu.Usage()
	tech := setup.Technique.String()
	if setup.Scheduler == psmr.SchedIndex {
		tech += "/index"
	}
	if setup.Optimistic {
		tech += "+opt"
	}
	if setup.TagTuning {
		tech += " " + setup.Tuning.Label()
	}
	if setup.Proxies > 0 {
		tech += fmt.Sprintf(" p=%d", setup.Proxies)
	}
	if setup.Fanout > 0 {
		tech += fmt.Sprintf(" fan=%d", setup.Fanout)
	}
	if setup.Tag != "" {
		tech += " " + setup.Tag
	}
	res := &bench.Result{
		Technique:  tech,
		Threads:    setup.Threads,
		Ops:        ops,
		Elapsed:    elapsed,
		Latency:    hist,
		CPUPercent: serverCPU(byRole, servers),
		CPUByRole:  byRole,
	}
	if setup.CheckpointInterval > 0 && ckptCounters != nil {
		// Checkpoint pause and snapshot-size columns: counts sum across
		// replicas, pauses and sizes report the worst replica.
		var agg psmr.CheckpointCounters
		for _, c := range ckptCounters() {
			agg.Add(c)
		}
		res.Extra = map[string]float64{
			"ckpt_count":         float64(agg.Checkpoints),
			"ckpt_pause_mean_us": float64(agg.MeanPause().Microseconds()),
			"ckpt_pause_max_us":  float64(agg.MaxPause().Microseconds()),
			"ckpt_bytes":         float64(agg.LastBytes),
		}
	}
	if setup.Optimistic && optCounters != nil {
		// Aggregate speculation statistics across replicas into the
		// figure output.
		var agg psmr.OptimisticCounters
		for _, c := range optCounters() {
			agg.Add(c)
		}
		if res.Extra == nil {
			res.Extra = map[string]float64{}
		}
		for k, v := range map[string]float64{
			"opt_hit_rate":     agg.HitRate(),
			"opt_hits":         float64(agg.Hits),
			"opt_misses":       float64(agg.Misses),
			"opt_rollbacks":    float64(agg.Rollbacks),
			"opt_rolled_back":  float64(agg.RolledBack),
			"opt_max_rb_depth": float64(agg.MaxRollbackDepth),
			"opt_ghosts":       float64(agg.GhostEvictions),
		} {
			res.Extra[k] = v
		}
	}
	if (setup.Proxies > 0 || setup.Fanout > 0) && orderCounters != nil {
		// Ordering-layer columns: how much the proxy tier compresses the
		// leader's ingress (frames per command) and how the proxies'
		// batches filled.
		oc := orderCounters()
		var queued, batches uint64
		for _, p := range oc.Proxies {
			queued += p.Queued
			batches += p.Batches
		}
		if res.Extra == nil {
			res.Extra = map[string]float64{}
		}
		res.Extra["proxy_queued"] = float64(queued)
		res.Extra["proxy_batches"] = float64(batches)
		if batches > 0 {
			res.Extra["proxy_mean_batch"] = float64(queued) / float64(batches)
		}
		res.Extra["leader_frames"] = float64(oc.Leader.InboundFrames)
		res.Extra["leader_cmds"] = float64(oc.Leader.InboundCommands)
		res.Extra["leader_frames_per_cmd"] = oc.Leader.FramesPerCommand()
	}
	if tracer != nil {
		if tr := tracer(); tr != nil {
			// Per-stage latency columns plus the printable breakdown
			// table; the cluster is still live (cleanup is deferred),
			// so the histograms include every fold up to now.
			res.Breakdown = tr.StageBreakdown()
			if res.Extra == nil {
				res.Extra = map[string]float64{}
			}
			for _, st := range obs.Stages() {
				h := tr.StageHistogram(st)
				if h == nil || h.Count() == 0 {
					continue
				}
				key := "trace_" + st.String()
				res.Extra[key+"_count"] = float64(h.Count())
				res.Extra[key+"_mean_us"] = float64(h.Mean().Microseconds())
				res.Extra[key+"_p99_us"] = float64(h.Quantile(0.99).Microseconds())
			}
			if th := tr.TotalHistogram(); th != nil && th.Count() > 0 {
				res.Extra["trace_total_count"] = float64(th.Count())
				res.Extra["trace_total_mean_us"] = float64(th.Mean().Microseconds())
				res.Extra["trace_total_p99_us"] = float64(th.Quantile(0.99).Microseconds())
			}
			sampled, folded, _, _ := tr.Counts()
			res.Extra["trace_sampled"] = float64(sampled)
			res.Extra["trace_folded"] = float64(folded)
		}
	}
	if setup.EmbedObs && registry != nil {
		if reg := registry(); reg != nil {
			if res.Extra == nil {
				res.Extra = map[string]float64{}
			}
			for k, v := range reg.Flatten() {
				res.Extra["reg_"+k] = v
			}
		}
	}
	return res, nil
}

// serverCPU aggregates the roles running on a server node (the paper's
// CPU panels measure the servers): execution threads, scheduler, and
// delivery, averaged per server.
func serverCPU(byRole map[string]float64, servers int) float64 {
	if servers <= 0 {
		servers = 1
	}
	total := byRole["worker"] + byRole["scheduler"] + byRole["learner"]
	return total / float64(servers)
}

// NetFSSetup parameterises one NetFS measurement (paper §VII-H).
type NetFSSetup struct {
	Technique Technique // PSMR, SPSMR or SMR
	// Threads is the worker count; the paper uses 8 path ranges.
	Threads int
	// Files is the number of preloaded files, spread over directories.
	Files int
	// FileSize is each file's initial size in bytes.
	FileSize int
	// Write selects the write-only experiment (reads otherwise).
	Write bool
	// IOSize is the bytes per read/write (paper: 1024).
	IOSize int
	// Clients and Window form the closed loop.
	Clients  int
	Window   int
	Duration time.Duration
	Warmup   time.Duration
}

func (s *NetFSSetup) fillDefaults() {
	if s.Threads <= 0 {
		s.Threads = 8
	}
	if s.Files <= 0 {
		s.Files = 512
	}
	if s.FileSize <= 0 {
		s.FileSize = 64 * 1024
	}
	if s.IOSize <= 0 {
		s.IOSize = 1024
	}
	if s.Clients <= 0 {
		s.Clients = 6
	}
	if s.Window <= 0 {
		s.Window = 50
	}
	if s.Duration <= 0 {
		s.Duration = 2 * time.Second
	}
	if s.Warmup <= 0 {
		s.Warmup = 300 * time.Millisecond
	}
}

// netfsPath returns the canonical path of preloaded file i.
func netfsPath(i int) string {
	return fmt.Sprintf("/data%d/file%d", i%8, i)
}

// RunNetFS measures one technique under the NetFS read or write
// workload.
func RunNetFS(setup NetFSSetup) (*bench.Result, error) {
	setup.fillDefaults()
	cpu := bench.NewCPUMeter()

	const t0 = int64(1_700_000_000_000_000_000)
	newService := func() command.Service {
		svc := netfs.NewService()
		fs := svc.FS()
		for d := 0; d < 8; d++ {
			fs.Mkdir(fmt.Sprintf("/data%d", d), 0o755, t0)
		}
		content := make([]byte, setup.FileSize)
		for i := range content {
			content[i] = byte(i * 31)
		}
		for i := 0; i < setup.Files; i++ {
			path := netfsPath(i)
			fd, _ := fs.Create(path, 0o644, t0)
			fs.Write(fd, 0, content, t0)
			fs.Release(fd)
		}
		return svc
	}

	mode := psmr.ModePSMR
	switch setup.Technique {
	case SPSMR:
		mode = psmr.ModeSPSMR
	case SMR:
		mode = psmr.ModeSMR
	case PSMR:
	default:
		return nil, fmt.Errorf("netfs experiment supports P-SMR/sP-SMR/SMR, got %v", setup.Technique)
	}
	threads := setup.Threads
	if mode == psmr.ModeSMR {
		threads = 1
	}
	cluster, err := psmr.StartCluster(psmr.Config{
		Mode:       mode,
		Workers:    threads,
		Replicas:   2,
		NewService: newService,
		Spec:       netfs.Spec(),
		CPU:        cpu,
	})
	if err != nil {
		return nil, fmt.Errorf("start %v netfs cluster: %w", setup.Technique, err)
	}
	defer cluster.Close()

	// Each client opens every 16th file through the replicated path so
	// all replicas agree on the fd table, then reads/writes at random
	// offsets through those fds.
	var clients []*clientFilesAlias
	for i := 0; i < setup.Clients; i++ {
		inv, err := cluster.NewClient()
		if err != nil {
			return nil, err
		}
		cf := &clientFilesAlias{fs: netfs.NewClient(inv)}
		for f := i; f < setup.Files; f += 16 {
			fd, err := cf.fs.Open(netfsPath(f))
			if err != nil {
				return nil, fmt.Errorf("open %s: %w", netfsPath(f), err)
			}
			cf.fds = append(cf.fds, fd)
		}
		clients = append(clients, cf)
	}

	invokers := make([]workload.Invoker, len(clients))
	for i, cf := range clients {
		invokers[i] = &netfsInvoker{setup: &setup, files: cf}
	}
	ops, elapsed, hist := workload.Run(workload.RunnerConfig{
		Clients:        invokers,
		Window:         setup.Window,
		Gen:            netfsOpGen{},
		Duration:       setup.Duration,
		Warmup:         setup.Warmup,
		Seed:           13,
		OnMeasureStart: cpu.Reset,
	})
	byRole, _ := cpu.Usage()
	return &bench.Result{
		Technique:  setup.Technique.String(),
		Threads:    threads,
		Ops:        ops,
		Elapsed:    elapsed,
		Latency:    hist,
		CPUPercent: serverCPU(byRole, 2),
		CPUByRole:  byRole,
	}, nil
}

// netfsOpGen produces an 8-byte random selector per op; the invoker
// turns it into one read or write call (the runner's Generator/Invoker
// split is keyed to the KV wire, while NetFS calls go through the
// typed client).
type netfsOpGen struct{}

func (netfsOpGen) Next(rng *rand.Rand) workload.Op {
	sel := make([]byte, 8)
	binary.LittleEndian.PutUint64(sel, rng.Uint64())
	return workload.Op{Input: sel}
}

// netfsInvoker adapts one NetFS client to the workload runner: each
// Invoke performs one IOSize-byte read or write on a random open fd at
// a random offset. The fd set is frozen before the workload starts, so
// the concurrent Read/Write calls only ever read the client's fd→path
// map — safe without locking.
type netfsInvoker struct {
	setup *NetFSSetup
	files *clientFilesAlias
}

type clientFilesAlias = struct {
	fs  *netfs.Client
	fds []uint64
}

func (n *netfsInvoker) Invoke(_ command.ID, input []byte) ([]byte, error) {
	sel := uint64(0)
	if len(input) >= 8 {
		sel = binary.LittleEndian.Uint64(input)
	}
	fd := n.files.fds[sel%uint64(len(n.files.fds))]
	offset := sel % uint64(n.setup.FileSize-n.setup.IOSize)
	if n.setup.Write {
		buf := make([]byte, n.setup.IOSize)
		for i := range buf {
			buf[i] = byte(int(sel) + i)
		}
		_, err := n.files.fs.Write(fd, offset, buf, 1_700_000_000_000_000_001)
		return nil, err
	}
	_, err := n.files.fs.Read(fd, offset, uint32(n.setup.IOSize))
	return nil, err
}

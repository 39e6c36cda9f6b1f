// Package experiment assembles the deployments and workloads of the
// paper's evaluation (§VII) and of the ablations that followed it: one
// table of entries (Entries), each a named question with the rows that
// answer it, shared between the testing.B benchmarks (bench_test.go)
// and the full-scale harness (cmd/psmr-bench). Every technique runs on
// its own in-process network with its own CPU meter; the harness
// reports throughput in Kcps, mean latency, a latency CDF and per-role
// CPU usage — the four panels the paper plots.
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

// mode returns the replication mode of a replicated technique.
func (t Technique) mode() (psmr.Mode, bool) {
	switch t {
	case PSMR:
		return psmr.ModePSMR, true
	case SPSMR:
		return psmr.ModeSPSMR, true
	case SMR:
		return psmr.ModeSMR, true
	}
	return 0, false
}

// KVSetup parameterises one key-value store measurement.
type KVSetup struct {
	// Scale sizes the run: preloaded keys (the paper uses 10M), the
	// closed loop (the paper's window is 50) and the measured interval.
	Scale
	Technique Technique
	// Threads is the worker/thread count (the paper's x-axis in
	// Figures 5 and 7; scheduler excluded for sP-SMR/no-rep).
	Threads int
	// Gen builds the per-setup operation generator from the preloaded
	// key space (uniform key selection; a skewed row ignores it and
	// draws from its own distribution).
	Gen func(keys workload.KeyGen) workload.Generator
	// Spec overrides the kvstore C-Dep (nil keeps kvstore.Spec()); the
	// multi-key ablation swaps in its barrier-C-G baseline here, the
	// coarse-C-G benchmark the paper's §IV-C variant.
	Spec *cdep.Spec
	// Tag is appended to the row label: the swept value the other
	// fields do not already name (tuning, collision rate, interval).
	Tag string
	// Scheduler selects the scheduling engine on the sP-SMR and no-rep
	// paths (scan reproduces the paper's bottleneck; index removes it).
	Scheduler psmr.SchedulerKind
	// Tuning switches the pipeline optimisations off for ablation
	// (reader sets, work stealing).
	Tuning psmr.SchedTuning
	// Optimistic enables optimistic (speculative) execution on the
	// sP-SMR path.
	Optimistic bool
	// OptimisticReorder is the optimistic-stream perturbation knob
	// (swap every Nth optimistic batch), for rollback-path ablations.
	OptimisticReorder int
	// CheckpointInterval enables coordinated checkpoints every N
	// decided commands (0 = off).
	CheckpointInterval int
	// Proxies inserts a proxy-proposer tier of N stateless ingress
	// proxies between clients and the coordinators (0 = direct
	// submission).
	Proxies int
	// Fanout stripes decided-value delivery across N relay processes
	// per group instead of the coordinator broadcasting serially
	// (0 = direct broadcast).
	Fanout int
	// TraceSample sets the cluster's pipeline-stage trace sampling
	// (0 = the 1/1024 default, 1 = every command, -1 = off).
	TraceSample int
	// JournalOff disables the always-on flight-recorder journal
	// (JournalEvents: -1), the baseline side of the flight gate.
	JournalOff bool
	// MergeWeight overrides P-SMR's deterministic merge weight / skip
	// slot rate; BatchMaxBytes overrides the consensus batch limit
	// (0 keeps the cluster defaults).
	MergeWeight   int
	BatchMaxBytes int
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
	if s.Gen == nil {
		s.Gen = workload.KVReads
	}
}

// Label names the row: the technique, "/index" on the index engine,
// "+opt" with speculation, the ordering tier's shape, then the Tag.
func (s KVSetup) Label() string {
	label := s.Technique.String()
	if s.Scheduler == psmr.SchedIndex {
		label += "/index"
	}
	if s.Optimistic {
		label += "+opt"
	}
	if s.Proxies > 0 {
		label += fmt.Sprintf(" p=%d", s.Proxies)
	}
	if s.Fanout > 0 {
		label += fmt.Sprintf(" fan=%d", s.Fanout)
	}
	if s.Tag != "" {
		label += " " + s.Tag
	}
	return label
}

// RunKV measures one technique under one key-value workload. On the
// replicated techniques the result's Extra is the cluster's metrics
// registry, flattened after the measured interval, and Breakdown its
// per-stage trace latency table.
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
		servers   = 1
		cleanup   func()
		registry  *obs.Registry
		tracer    *obs.Tracer
		newClient func(i int) (workload.Invoker, error)
	)
	switch mode, replicated := setup.Technique.mode(); {
	case replicated:
		journal := 0
		if setup.JournalOff {
			journal = -1
		}
		cluster, err := psmr.StartCluster(psmr.Config{
			Mode:              mode,
			Workers:           setup.Threads,
			Replicas:          2,
			NewService:        newStore,
			Spec:              spec,
			Scheduler:         setup.Scheduler,
			SchedTuning:       setup.Tuning,
			Optimistic:        setup.Optimistic,
			OptimisticReorder: setup.OptimisticReorder,
			Checkpoint:        psmr.CheckpointConfig{Interval: setup.CheckpointInterval},
			Proxies:           setup.Proxies,
			FanoutDegree:      setup.Fanout,
			MergeWeight:       setup.MergeWeight,
			BatchMaxBytes:     setup.BatchMaxBytes,
			CPU:               cpu,
			TraceSample:       setup.TraceSample,
			JournalEvents:     journal,
		})
		if err != nil {
			return nil, fmt.Errorf("start %v cluster: %w", setup.Technique, err)
		}
		cleanup = func() { _ = cluster.Close() }
		servers = 2
		registry, tracer = cluster.Registry(), cluster.Tracer()
		newClient = func(int) (workload.Invoker, error) { return cluster.NewClient() }
	case setup.Technique == NoRep:
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
		newClient = func(i int) (workload.Invoker, error) {
			return direct.NewClient(direct.ClientConfig{ID: uint64(i + 1), Target: "norep/server", Transport: net})
		}
	case setup.Technique == BDB:
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
		// Clients stick to one server thread, round-robin.
		newClient = func(i int) (workload.Invoker, error) {
			return direct.NewClient(direct.ClientConfig{ID: uint64(i + 1),
				Target: lockstore.ThreadAddr("lockstore", i%setup.Threads), Transport: net})
		}
	default:
		return nil, fmt.Errorf("unknown technique %v", setup.Technique)
	}
	defer cleanup()
	invokers := make([]workload.Invoker, setup.Clients)
	for i := range invokers {
		c, err := newClient(i)
		if err != nil {
			return nil, err
		}
		invokers[i] = c
	}

	ops, elapsed, hist := workload.Run(workload.RunnerConfig{
		Clients:        invokers,
		Window:         setup.Window,
		Gen:            setup.Gen(workload.Uniform{N: uint64(setup.Keys)}),
		Duration:       setup.Duration,
		Warmup:         setup.Warmup,
		Seed:           7,
		OnMeasureStart: cpu.Reset,
	})
	byRole, _ := cpu.Usage()
	return &bench.Result{
		Technique:  setup.Label(),
		Threads:    setup.Threads,
		Ops:        ops,
		Elapsed:    elapsed,
		Latency:    hist,
		CPUPercent: serverCPU(byRole, servers),
		CPUByRole:  byRole,
		// The cluster is still live (cleanup is deferred), so the
		// trace histograms include every fold up to now.
		Extra:     registry.Flatten(),
		Breakdown: tracer.StageBreakdown(),
	}, nil
}

// serverCPU aggregates the roles running on a server node (the paper's
// CPU panels measure the servers): execution threads, scheduler, and
// delivery, averaged per server.
func serverCPU(byRole map[string]float64, servers int) float64 {
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

// Label names the row: the technique and the operation measured.
func (s NetFSSetup) Label() string {
	if s.Write {
		return s.Technique.String() + " writes"
	}
	return s.Technique.String() + " reads"
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

	mode, ok := setup.Technique.mode()
	if !ok {
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
	invokers := make([]workload.Invoker, setup.Clients)
	for i := range invokers {
		inv, err := cluster.NewClient()
		if err != nil {
			return nil, err
		}
		n := &netfsInvoker{setup: &setup, fs: netfs.NewClient(inv)}
		for f := i; f < setup.Files; f += 16 {
			fd, err := n.fs.Open(netfsPath(f))
			if err != nil {
				return nil, fmt.Errorf("open %s: %w", netfsPath(f), err)
			}
			n.fds = append(n.fds, fd)
		}
		invokers[i] = n
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
		Technique:  setup.Label(),
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
	fs    *netfs.Client
	fds   []uint64
}

func (n *netfsInvoker) Invoke(_ command.ID, input []byte) ([]byte, error) {
	sel := uint64(0)
	if len(input) >= 8 {
		sel = binary.LittleEndian.Uint64(input)
	}
	fd := n.fds[sel%uint64(len(n.fds))]
	offset := sel % uint64(n.setup.FileSize-n.setup.IOSize)
	if n.setup.Write {
		buf := make([]byte, n.setup.IOSize)
		for i := range buf {
			buf[i] = byte(int(sel) + i)
		}
		_, err := n.fs.Write(fd, offset, buf, 1_700_000_000_000_000_001)
		return nil, err
	}
	_, err := n.fs.Read(fd, offset, uint32(n.setup.IOSize))
	return nil, err
}

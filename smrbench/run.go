package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"github.com/psmr/psmr"
	"github.com/psmr/psmr/internal/cdep"
	"github.com/psmr/psmr/internal/command"
	"github.com/psmr/psmr/internal/core"
	"github.com/psmr/psmr/internal/kvstore"
	"github.com/psmr/psmr/internal/multicast"
	"github.com/psmr/psmr/internal/transport"
	"github.com/psmr/psmr/internal/workload"
)

// report is what one run measured.
type report struct {
	metrics []metricValue // the metrics of the JSON result
	// printed are shown but left out of the JSON result, because no
	// bound could hold them on a shared host (NOTES.md): latency_p99_ms
	// moves with the host's CPU steal, and error_rate is 0 on a healthy
	// run (the result carries it as failed/attempted).
	printed           []metricValue
	notes             []string
	attempted, failed int64
	check             error // the first failed correctness check
}

// cluster is a started deployment and what the benchmark keeps of it.
type cluster struct {
	*psmr.Cluster
	w      workloadSpec
	net    transport.Transport // the transport the cluster was given
	stores []*kvstore.Store    // one per replica, in start order
}

// startCluster starts the workload's deployment and returns it with a
// client session whose first command has been answered, and the set-up
// time: StartCluster with every replica's preload, up to that answer.
// With a ledger the cluster runs through its wrappers, the CPU meter and
// full pipeline tracing; without one it runs with the shipped defaults.
func startCluster(w workloadSpec, led *ledger) (*cluster, *core.Client, time.Duration, error) {
	cl := &cluster{w: w}
	cfg := w.deploy
	cfg.Spec = kvstore.Spec()
	var mu sync.Mutex
	cfg.NewService = func() command.Service {
		st := kvstore.New()
		st.Preload(w.keys)
		mu.Lock()
		cl.stores = append(cl.stores, st)
		mu.Unlock()
		if led != nil {
			return timedStore{Store: st, hist: &led.exec}
		}
		return st
	}
	// The default transport: a fresh in-process network, no injected delay.
	mem := transport.NewMemNetwork(1)
	cl.net = mem
	if led != nil {
		led.net = &ledgerTransport{inner: mem}
		cl.net = led.net
		cfg.CPU = led.cpu
		cfg.TraceSample = 1
	}
	cfg.Transport = cl.net

	start := time.Now()
	pc, err := psmr.StartCluster(cfg)
	if err != nil {
		_ = mem.Close()
		return nil, nil, 0, fmt.Errorf("start %s cluster: %w", w.name, err)
	}
	cl.Cluster = pc
	c, err := pc.NewClient()
	if err != nil {
		_ = pc.Close()
		return nil, nil, 0, fmt.Errorf("new client: %w", err)
	}
	first := workload.Op{Cmd: kvstore.CmdRead, Input: kvstore.EncodeKey(0)}
	out, err := c.Invoke(first.Cmd, first.Input)
	setup := time.Since(start)
	if err == nil {
		err = checkReply(first, out)
	}
	if err != nil {
		_ = c.Close()
		_ = pc.Close()
		return nil, nil, 0, fmt.Errorf("first command: %w", err)
	}
	return cl, c, setup, nil
}

// loadgen returns a load generator over first and one more session.
func (cl *cluster) loadgen(first *core.Client, led *ledger) (*loadgen, error) {
	g := &loadgen{clients: []*core.Client{first}, led: led}
	for len(g.clients) < sessions {
		c, err := cl.NewClient()
		if err != nil {
			g.finish()
			return nil, fmt.Errorf("new client: %w", err)
		}
		g.clients = append(g.clients, c)
	}
	return g, nil
}

// markerClient is the convergence marker's client id, far above the
// ids Cluster.NewClient hands out.
const markerClient = 1 << 48

// checkConverged orders one global-barrier insert and waits for every
// replica's reply to it. A replica replies only once it has executed
// everything ordered before the barrier, and nothing is ordered after
// it, so the stores are then quiescent and must hold the same data.
func (cl *cluster) checkConverged() error {
	reply := transport.Addr(fmt.Sprintf("client/%d", markerClient))
	ep, err := cl.net.Listen(reply)
	if err != nil {
		return fmt.Errorf("marker: %w", err)
	}
	defer ep.Close()
	cg, err := cdep.Compile(kvstore.Spec(), cl.w.deploy.Workers)
	if err != nil {
		return fmt.Errorf("marker: %w", err)
	}
	key := uint64(churnBase - 1) // neither preloaded nor churned
	input := kvstore.EncodeKeyValue(key, kvstore.EncodeKey(key))
	frame := command.AppendRequest(nil, &command.Request{
		Client: markerClient, Seq: 1, Cmd: kvstore.CmdInsert,
		Gamma: cg.Groups(kvstore.CmdInsert, input, rand.Intn), Input: input, Reply: reply,
	})
	// A global command rides the last group: the serial group of
	// multi-group P-SMR, the only group otherwise.
	groups := cl.Groups()
	if err := multicast.NewSender(cl.net, groups).Multicast(len(groups)-1, frame); err != nil {
		return fmt.Errorf("marker: %w", err)
	}
	timeout := time.NewTimer(10 * time.Second)
	defer timeout.Stop()
	for answered := 0; answered < len(cl.stores); {
		select {
		case f, ok := <-ep.Recv():
			if !ok {
				return errors.New("marker: reply endpoint closed")
			}
			resp, err := command.DecodeResponse(f)
			if err != nil || resp.Client != markerClient || resp.Seq != 1 {
				continue
			}
			if len(resp.Output) != 1 || resp.Output[0] != kvstore.OK {
				return fmt.Errorf("marker insert: reply %x, want OK", resp.Output)
			}
			answered++
		case <-timeout.C:
			return fmt.Errorf("marker insert: %d of %d replicas replied within 10s (optimistic counters per replica: %v)",
				answered, len(cl.stores), cl.OptimisticCounters())
		}
	}
	want := cl.stores[0].Fingerprint()
	for r, st := range cl.stores[1:] {
		if got := st.Fingerprint(); got != want {
			return fmt.Errorf("replicas diverged: replica %d fingerprint %x, replica 0 %x", r+1, got, want)
		}
	}
	return nil
}

// check runs the correctness checks once the load has finished: every
// reply had its expected code, the hot balances kept their sum, and the
// replicas converged.
func (cl *cluster) check(g *loadgen) error {
	if err := g.badReply(); err != nil {
		return err
	}
	if cl.w.hotSum {
		c, err := cl.NewClient()
		if err != nil {
			return fmt.Errorf("hot balances: %w", err)
		}
		sum, err := readHotSum(c.Invoke)
		_ = c.Close()
		if err != nil {
			return err
		}
		if sum != hotBalanceSum {
			return fmt.Errorf("hot balances sum to %d, preloaded %d", sum, hotBalanceSum)
		}
	}
	return cl.checkConverged()
}

func (w *workloadSpec) closedStreams(seed int64) [][]workload.Op {
	s := make([][]workload.Op, sessions*window)
	for i := range s {
		s[i] = w.ops(seed, i, slotOps)
	}
	return s
}

func (w *workloadSpec) openStreams(seed int64) [][]workload.Op {
	s := make([][]workload.Op, sessions)
	for i := range s {
		s[i] = w.ops(seed, sessions*window+i, sessionOps)
	}
	return s
}

// phases are the measured lengths of a run's closed-loop (capacity) and
// open-loop (latency) phases. Tail latency needs the longer one.
type phases struct{ closed, open time.Duration }

// runEndToEnd measures the end-to-end metrics with the shipped
// defaults: the cluster starts setupRuns times for the set-up time, and
// the last one serves the closed-loop and then the open-loop phase.
func runEndToEnd(w workloadSpec, seed int64, ph phases) (*report, error) {
	closed, open := w.closedStreams(seed), w.openStreams(seed)
	peak := startHeapPeak()
	defer peak.finish()
	var (
		cl     *cluster
		first  *core.Client
		setups []float64
	)
	for i := 0; i < setupRuns; i++ {
		if cl != nil {
			_ = first.Close()
			_ = cl.Close()
			cl = nil
			runtime.GC() // each set-up starts from a collected heap
		}
		var setup time.Duration
		var err error
		cl, first, setup, err = startCluster(w, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup.Seconds())
	}
	defer cl.Close()
	g, err := cl.loadgen(first, nil)
	if err != nil {
		return nil, err
	}

	var cpu [2]time.Duration
	var rt [2]rtSnapshot
	res := g.closedLoop(closed, warmUp, ph.closed, func(start bool) {
		i := 1
		if start {
			i = 0
		}
		cpu[i], rt[i] = cpuTime(), readRuntime()
	})
	run := g.openLoop(open, float64(w.rate), ph.open)
	lat := run.stats(g.finish())
	rep := &report{attempted: g.attempted.Load(), failed: g.failed.Load(), check: cl.check(g)}
	heap := peak.finish()
	if res.committed == 0 {
		return nil, errors.New("no command was answered in the closed-loop phase")
	}
	cmds := float64(res.committed)
	rep.metrics = []metricValue{
		{Name: "throughput_kcps", Unit: "kcmd/s", Value: median(res.windowKcps), N: len(res.windowKcps)},
		{Name: "latency_p50_ms", Unit: "ms", Value: lat.p50.Value, N: lat.p50.N},
		{Name: "cpu_us_per_cmd", Unit: "us", Value: float64(cpu[1]-cpu[0]) / 1e3 / cmds},
		{Name: "allocs_per_cmd", Unit: "count", Value: float64(rt[1].allocObjects-rt[0].allocObjects) / cmds},
		{Name: "alloc_bytes_per_cmd", Unit: "B", Value: float64(rt[1].allocBytes-rt[0].allocBytes) / cmds},
		{Name: "heap_peak_mb", Unit: "MB", Value: float64(heap) / 1e6},
		{Name: "setup_s", Unit: "s", Value: median(setups), N: len(setups)},
	}
	rep.printed = []metricValue{
		{Name: "latency_p99_ms", Unit: "ms", Value: lat.p99.Value, N: lat.p99.N},
		{Name: "error_rate", Unit: "ratio", Value: float64(rep.failed) / float64(rep.attempted), N: int(rep.attempted)},
		{Name: "throughput_kcps.whole_phase", Unit: "kcmd/s", Value: cmds / res.elapsed.Seconds() / 1e3},
		{Name: "loadgen.late_p99_ms", Unit: "ms", Value: lat.lateP99.Value, N: lat.lateP99.N},
	}
	rep.notes = append(rep.notes,
		fmt.Sprintf("throughput_kcps per %v window: %.2f", closedWindow, res.windowKcps),
		fmt.Sprintf("latency_p99_ms per %v window {ms samples}: %v", openWindow, lat.windowP99),
		fmt.Sprintf("setup_s runs: %.4f", setups))
	return rep, nil
}

// runTraced measures the per-layer metrics. A closed-loop phase with
// the shipped defaults gives the untraced capacity the tracing overhead
// is judged against; then the traced cluster runs both phases through
// the ledger, and the ledger is written to ledgerPath.
func runTraced(w workloadSpec, seed int64, ph phases, ledgerPath string, st stamp) (*report, error) {
	closed, open := w.closedStreams(seed), w.openStreams(seed)
	rep := &report{}

	cl, first, _, err := startCluster(w, nil)
	if err != nil {
		return nil, err
	}
	g, err := cl.loadgen(first, nil)
	if err != nil {
		_ = cl.Close()
		return nil, err
	}
	plain := g.closedLoop(closed, warmUp, ph.closed, func(bool) {})
	g.finish()
	rep.check = g.badReply()
	rep.attempted, rep.failed = g.attempted.Load(), g.failed.Load()
	_ = cl.Close()
	runtime.GC()

	led := newLedger()
	cl, first, _, err = startCluster(w, led)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	if g, err = cl.loadgen(first, led); err != nil {
		return nil, err
	}
	in := layerInputs{mode: w.deploy.Mode, tracer: cl.Tracer()}
	traced := g.closedLoop(closed, warmUp, ph.closed, func(start bool) {
		if start {
			in.before = led.snap(cl.Cluster)
		} else {
			in.after = led.snap(cl.Cluster)
		}
	})
	run := g.openLoop(open, float64(w.rate), ph.open)
	in.open = run.stats(g.finish())
	in.rtEnd = readRuntime()
	if traced.committed == 0 || plain.committed == 0 {
		return nil, errors.New("no command was answered in a closed-loop phase")
	}
	in.committed = traced.committed
	in.tracedKcps, in.plainKcps = median(traced.windowKcps), median(plain.windowKcps)
	if rep.check == nil {
		rep.check = cl.check(g)
	}
	rep.attempted += g.attempted.Load()
	rep.failed += g.failed.Load()
	rep.metrics = led.metrics(in)
	rep.notes = led.notes()
	if err := led.write(ledgerPath, st); err != nil {
		return nil, err
	}
	rep.notes = append(rep.notes, "ledger written to "+ledgerPath)
	return rep, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// kernel returns the running kernel's release.
func kernel() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	var b []byte
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(b)
}

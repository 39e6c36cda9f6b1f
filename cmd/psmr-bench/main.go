// Command psmr-bench regenerates the paper's evaluation (§VII): every
// figure and table, at configurable scale. Each experiment prints the
// same rows/series the paper reports: throughput in Kcps with
// normalisation against the figure's baseline, mean latency, a latency
// CDF summary, and server CPU usage.
//
// Usage:
//
//	psmr-bench -exp all
//	psmr-bench -exp fig3 -keys 1000000 -duration 4s -clients 8
//	psmr-bench -exp fig7
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/psmr/psmr/internal/bench"
	"github.com/psmr/psmr/internal/experiment"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: table1|fig3|fig4|fig5|fig6|fig7|fig8|sched|admit|multikey|optimistic|rollback|checkpoint|compartment|obs|obsgate|flightgate|all")
		threads  = flag.Int("threads", 8, "worker threads for the sched/admit ablations")
		keys     = flag.Int("keys", 1_000_000, "preloaded database keys (paper: 10M)")
		clients  = flag.Int("clients", 8, "closed-loop clients")
		window   = flag.Int("window", 50, "outstanding commands per client (paper: 50)")
		duration = flag.Duration("duration", 4*time.Second, "measured interval per point")
		warmup   = flag.Duration("warmup", 500*time.Millisecond, "warmup before measuring")
	)
	flag.Parse()

	scale := experiment.Scale{
		Keys:     *keys,
		Clients:  *clients,
		Window:   *window,
		Duration: *duration,
		Warmup:   *warmup,
	}
	if err := run(*exp, scale, *threads); err != nil {
		fmt.Fprintln(os.Stderr, "psmr-bench:", err)
		os.Exit(1)
	}
}

func run(exp string, scale Scale, threads int) error {
	switch exp {
	case "table1":
		return runTable1()
	case "fig3":
		return runFig3(scale)
	case "fig4":
		return runFig4(scale)
	case "fig5":
		return runFig5(scale)
	case "fig6":
		return runFig6(scale)
	case "fig7":
		return runFig7(scale)
	case "fig8":
		return runFig8(scale)
	case "sched":
		return runSched(scale, threads)
	case "admit":
		return runAdmit(scale, threads)
	case "multikey":
		return runMultiKey(scale, threads)
	case "optimistic":
		return runOptimistic(scale, threads)
	case "rollback":
		return runRollback(scale, threads)
	case "checkpoint":
		return runCheckpoint(scale, threads)
	case "compartment":
		return runCompartment(scale, threads)
	case "obs":
		return runObs(scale, threads)
	case "obsgate":
		return runObsGate(scale, threads)
	case "flightgate":
		return runFlightGate(scale, threads)
	case "all":
		for _, fn := range []func() error{
			runTable1,
			func() error { return runFig3(scale) },
			func() error { return runFig4(scale) },
			func() error { return runFig5(scale) },
			func() error { return runFig6(scale) },
			func() error { return runFig7(scale) },
			func() error { return runFig8(scale) },
			func() error { return runSched(scale, threads) },
			func() error { return runAdmit(scale, threads) },
			func() error { return runMultiKey(scale, threads) },
			func() error { return runOptimistic(scale, threads) },
			func() error { return runRollback(scale, threads) },
			func() error { return runCheckpoint(scale, threads) },
			func() error { return runCompartment(scale, threads) },
			func() error { return runObs(scale, threads) },
		} {
			if err := fn(); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
}

// runSched runs the scan-vs-index scheduler ablation: sP-SMR and
// no-rep under the update-heavy kvstore workload, the paper's measured
// scheduler bottleneck against the index-based early scheduler.
func runSched(scale Scale, threads int) error {
	fmt.Println("==============================================================")
	fmt.Printf("Scheduler ablation — scan vs index-based early scheduling\n")
	fmt.Printf("(update-heavy kvstore, %d workers; paper §VI-B: the scan\n", threads)
	fmt.Println(" scheduler saturates one core while workers idle)")
	kcps := map[string]float64{}
	var results []*bench.Result
	for _, setup := range experiment.SchedAblationSetups(scale, threads) {
		res, err := experiment.RunKV(setup)
		if err != nil {
			return fmt.Errorf("sched %v: %w", setup.Technique, err)
		}
		kcps[res.Technique] = res.Kcps()
		results = append(results, res)
		fmt.Println(" ", res)
		// The paper's bottleneck claim is about where cycles go: under
		// scan the scheduler thread burns a core's worth of admission
		// work, under index the scheduler role should shrink to noise.
		fmt.Printf("    roles: scheduler=%.1f%% worker=%.1f%% learner=%.1f%%\n",
			res.CPUByRole["scheduler"], res.CPUByRole["worker"], res.CPUByRole["learner"])
	}
	fmt.Println()
	for _, pair := range [][2]string{
		{"sP-SMR", "sP-SMR/index"},
		{"no-rep", "no-rep/index"},
	} {
		if kcps[pair[0]] > 0 && kcps[pair[1]] > 0 {
			fmt.Printf("  %-12s index/scan speedup: %.2fx\n", pair[0], kcps[pair[1]]/kcps[pair[0]])
		}
	}
	for _, res := range results {
		printCDF(res)
	}
	fmt.Println()
	return nil
}

// runAdmit runs the admission ablation on the index engine: reader
// sets on/off × work stealing on/off under the 50/50 read/update
// kvstore workload.
func runAdmit(scale Scale, threads int) error {
	fmt.Println("==============================================================")
	fmt.Printf("Admission ablation — index-engine pipeline knobs (sP-SMR/index,\n")
	fmt.Printf("50%%/50%% read/update kvstore, %d workers; reader sets x\n", threads)
	fmt.Println(" work stealing)")
	kcps := map[string]float64{}
	var results []*bench.Result
	for _, setup := range experiment.AdmitAblationSetups(scale, threads) {
		res, err := experiment.RunKV(setup)
		if err != nil {
			return fmt.Errorf("admit %v: %w", setup.Tuning.Label(), err)
		}
		kcps[res.Technique] = res.Kcps()
		results = append(results, res)
		fmt.Println(" ", res)
		fmt.Printf("    roles: scheduler=%.1f%% worker=%.1f%% learner=%.1f%%\n",
			res.CPUByRole["scheduler"], res.CPUByRole["worker"], res.CPUByRole["learner"])
	}
	fmt.Println()
	base := kcps["sP-SMR/index nors+nosteal"]
	tuned := kcps["sP-SMR/index rs+steal"]
	if base > 0 && tuned > 0 {
		fmt.Printf("  rs+steal / nors+nosteal speedup: %.2fx\n", tuned/base)
	}
	for _, res := range results {
		printCDF(res)
	}
	fmt.Println()
	return nil
}

// runMultiKey runs the barrier-vs-multikey ablation: the two-key
// kvstore transfer under a single-key C-G (every transfer an
// all-worker barrier) against the key-set C-Dep (only the two touched
// keys' owners take part), on both scheduling engines.
func runMultiKey(scale Scale, threads int) error {
	fmt.Println("==============================================================")
	fmt.Printf("Multi-key ablation — barrier C-G vs key-set C-Dep (sP-SMR,\n")
	fmt.Printf("50%%/50%% transfer/read kvstore, %d workers; scan and index\n", threads)
	fmt.Println(" engines; transfers hold only their two keys' owners)")
	kcps := map[string]float64{}
	var results []*bench.Result
	for _, setup := range experiment.MultiKeyAblationSetups(scale, threads) {
		res, err := experiment.RunKV(setup)
		if err != nil {
			return fmt.Errorf("multikey %v %s: %w", setup.Scheduler, setup.Tag, err)
		}
		kcps[res.Technique] = res.Kcps()
		results = append(results, res)
		fmt.Println(" ", res)
		fmt.Printf("    roles: scheduler=%.1f%% worker=%.1f%% learner=%.1f%%\n",
			res.CPUByRole["scheduler"], res.CPUByRole["worker"], res.CPUByRole["learner"])
	}
	fmt.Println()
	for _, pair := range [][2]string{
		{"sP-SMR barrier-cg", "sP-SMR multikey-cg"},
		{"sP-SMR/index barrier-cg", "sP-SMR/index multikey-cg"},
	} {
		if kcps[pair[0]] > 0 && kcps[pair[1]] > 0 {
			fmt.Printf("  %-24s multikey/barrier speedup: %.2fx\n", pair[0], kcps[pair[1]]/kcps[pair[0]])
		}
	}
	for _, res := range results {
		printCDF(res)
	}
	fmt.Println()
	return nil
}

// runOptimistic runs the optimistic-execution ablation: speculation
// off/on × scan/index engines × workload collision rate, reporting
// throughput plus the speculation hit-rate and rollback counters.
func runOptimistic(scale Scale, threads int) error {
	fmt.Println("==============================================================")
	fmt.Printf("Optimistic ablation — speculate on the unordered stream,\n")
	fmt.Printf("reconcile on consensus (sP-SMR, %d workers; reads + hot-set\n", threads)
	fmt.Println(" transfers at 0/10/50% collision; scan and index engines)")
	kcps := map[string]float64{}
	var results []*bench.Result
	for _, setup := range experiment.OptimisticAblationSetups(scale, threads) {
		res, err := experiment.RunKV(setup)
		if err != nil {
			return fmt.Errorf("optimistic %v %s: %w", setup.Scheduler, setup.Tag, err)
		}
		kcps[res.Technique] = res.Kcps()
		results = append(results, res)
		fmt.Println(" ", res)
		if res.Extra != nil {
			fmt.Printf("    speculation: hit-rate=%.1f%% (%.0f/%.0f) rollbacks=%.0f depth-sum=%.0f max-depth=%.0f\n",
				100*res.Extra["opt_hit_rate"], res.Extra["opt_hits"],
				res.Extra["opt_hits"]+res.Extra["opt_misses"],
				res.Extra["opt_rollbacks"], res.Extra["opt_rolled_back"], res.Extra["opt_max_rb_depth"])
		}
	}
	fmt.Println()
	for _, base := range []string{"sP-SMR", "sP-SMR/index"} {
		for _, col := range []string{"col=0%", "col=10%", "col=50%"} {
			off := kcps[base+" "+col]
			on := kcps[base+"+opt "+col]
			if off > 0 && on > 0 {
				fmt.Printf("  %-14s %-8s optimistic/decided throughput: %.2fx\n", base, col, on/off)
			}
		}
	}
	for _, res := range results {
		printCDF(res)
	}
	fmt.Println()
	return nil
}

// runRollback runs the rollback-model ablation: the decided-path
// baseline (speculation off) against mvstore speculation under forced
// optimistic/decided reordering at 0/10/50% workload collision. Every
// rollback goes through the versioned-store epoch abort (O(touched
// keys)); the rows report the rollback counters alongside
// throughput. Besides printing, the rows are written to
// BENCH_rollback.json so the ablation is diffable across runs. The store-size side of the
// rollback story (netfs abort cost flat vs state size) is the root
// BenchmarkRollbackDepth microbench.
func runRollback(scale Scale, threads int) error {
	fmt.Println("==============================================================")
	fmt.Printf("Rollback ablation — decided-path baseline vs mvstore epoch\n")
	fmt.Printf("abort (sP-SMR/index, %d workers; forced optimistic\n", threads)
	fmt.Println(" reordering; 0/10/50% collision workload)")
	kcps := map[string]float64{}
	var results []*bench.Result
	for _, setup := range experiment.RollbackAblationSetups(scale, threads) {
		res, err := experiment.RunKV(setup)
		if err != nil {
			return fmt.Errorf("rollback %s opt=%v: %w", setup.Tag, setup.Optimistic, err)
		}
		kcps[res.Technique] = res.Kcps()
		results = append(results, res)
		fmt.Println(" ", res)
		if res.Extra != nil {
			fmt.Printf("    speculation: hit-rate=%.1f%% rollbacks=%.0f rolled-back=%.0f max-depth=%.0f\n",
				100*res.Extra["opt_hit_rate"], res.Extra["opt_rollbacks"],
				res.Extra["opt_rolled_back"], res.Extra["opt_max_rb_depth"])
		}
	}
	fmt.Println()
	for _, col := range []string{"col=0%", "col=10%", "col=50%"} {
		base := kcps["sP-SMR/index "+col]
		if on := kcps["sP-SMR/index+opt "+col]; base > 0 && on > 0 {
			fmt.Printf("  %-8s abort speculative/decided throughput: %.2fx\n", col, on/base)
		}
	}
	for _, res := range results {
		printCDF(res)
	}
	if err := writeRowsJSON("BENCH_rollback.json", results); err != nil {
		return err
	}
	fmt.Println("  wrote BENCH_rollback.json")
	fmt.Println()
	return nil
}

// benchRow is the JSON shape of one ablation row: the identifying
// technique string, throughput, latency summary and the raw Extra
// counters (speculation/rollback statistics for the rollback rows,
// proxy/leader ordering counters for the compartment rows).
type benchRow struct {
	Technique string             `json:"technique"`
	Threads   int                `json:"threads"`
	Kcps      float64            `json:"kcps"`
	MeanUs    float64            `json:"mean_us"`
	P99Us     float64            `json:"p99_us"`
	Extra     map[string]float64 `json:"extra,omitempty"`
}

// benchHost stamps every BENCH_*.json with the machine the numbers
// came from — without it a committed row and a regression report are
// not comparable.
type benchHost struct {
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
	OS         string `json:"goos"`
	Arch       string `json:"goarch"`
	Kernel     string `json:"kernel,omitempty"`
}

func hostMeta() benchHost {
	h := benchHost{
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	return h
}

// benchFile is the BENCH_*.json document: host metadata plus the rows.
type benchFile struct {
	Host benchHost  `json:"host"`
	Rows []benchRow `json:"rows"`
}

func writeRowsJSON(path string, results []*bench.Result) error {
	rows := make([]benchRow, 0, len(results))
	for _, res := range results {
		row := benchRow{
			Technique: res.Technique,
			Threads:   res.Threads,
			Kcps:      res.Kcps(),
			Extra:     res.Extra,
		}
		if res.Latency != nil && res.Latency.Count() > 0 {
			row.MeanUs = float64(res.Latency.Mean().Microseconds())
			row.P99Us = float64(res.Latency.Quantile(0.99).Microseconds())
		}
		rows = append(rows, row)
	}
	data, err := json.MarshalIndent(benchFile{Host: hostMeta(), Rows: rows}, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

// runCompartment runs the compartmentalized-ordering ablation: a
// proxy-count scaling curve (0/1/2/4 ingress proxies) crossed with
// learner fan-out off/on (2 delivery stripes per group). Besides
// throughput, the proxy rows report the leader's inbound
// frames-per-command (the ingress compression the tier buys) and the
// proxies' mean batch fill. Rows are written to BENCH_compartment.json
// so the curve is diffable across runs.
func runCompartment(scale Scale, threads int) error {
	fmt.Println("==============================================================")
	fmt.Printf("Compartment ablation — proxy-proposer tier and learner fan-out\n")
	fmt.Printf("(sP-SMR/index, 50%%/50%% read/update kvstore, %d workers;\n", threads)
	fmt.Println(" proxies 0/1/2/4 x fan-out off/2 stripes; p=0,fan=0 is the")
	fmt.Println(" direct-submission baseline)")
	kcps := map[string]float64{}
	var results []*bench.Result
	for _, setup := range experiment.CompartmentAblationSetups(scale, threads) {
		res, err := experiment.RunKV(setup)
		if err != nil {
			return fmt.Errorf("compartment p=%d fan=%d: %w", setup.Proxies, setup.Fanout, err)
		}
		kcps[res.Technique] = res.Kcps()
		results = append(results, res)
		fmt.Println(" ", res)
		if res.Extra != nil && res.Extra["leader_cmds"] > 0 {
			fmt.Printf("    ordering: leader frames/cmd=%.3f  proxy mean batch=%.1f (%.0f cmds in %.0f batches)\n",
				res.Extra["leader_frames_per_cmd"], res.Extra["proxy_mean_batch"],
				res.Extra["proxy_queued"], res.Extra["proxy_batches"])
		}
	}
	fmt.Println()
	base := kcps["sP-SMR/index"]
	for _, fan := range []string{"", " fan=2"} {
		for _, p := range []string{"p=1", "p=2", "p=4"} {
			name := "sP-SMR/index " + p + fan
			if on := kcps[name]; base > 0 && on > 0 {
				fmt.Printf("  %-24s vs direct baseline: %.2fx\n", p+fan, on/base)
			}
		}
	}
	if fanOnly := kcps["sP-SMR/index fan=2"]; base > 0 && fanOnly > 0 {
		fmt.Printf("  %-24s vs direct baseline: %.2fx\n", "fan=2", fanOnly/base)
	}
	for _, res := range results {
		printCDF(res)
	}
	if err := writeRowsJSON("BENCH_compartment.json", results); err != nil {
		return err
	}
	fmt.Println("  wrote BENCH_compartment.json")
	fmt.Println()
	return nil
}

// runCheckpoint runs the checkpoint-interval sweep: coordinated
// on-barrier snapshots off / every 1k / 8k / 64k decided commands,
// reporting throughput plus the quiesce pause (the time the worker
// pool stands still per snapshot) and the snapshot size.
func runCheckpoint(scale Scale, threads int) error {
	fmt.Println("==============================================================")
	fmt.Printf("Checkpoint ablation — coordinated on-barrier snapshots\n")
	fmt.Printf("(sP-SMR, 50%%/50%% read/update kvstore, %d workers; interval\n", threads)
	fmt.Println(" off/1k/8k/64k decided commands x scan/index engines; learner")
	fmt.Println(" retention is bounded by the interval, the quiesce pause is")
	fmt.Println(" what the snapshot costs)")
	kcps := map[string]float64{}
	var results []*bench.Result
	for _, setup := range experiment.CheckpointAblationSetups(scale, threads) {
		res, err := experiment.RunKV(setup)
		if err != nil {
			return fmt.Errorf("checkpoint %v %s: %w", setup.Scheduler, setup.Tag, err)
		}
		kcps[res.Technique] = res.Kcps()
		results = append(results, res)
		fmt.Println(" ", res)
		if res.Extra != nil && res.Extra["ckpt_count"] > 0 {
			fmt.Printf("    checkpoints: count=%.0f pause-mean=%.0fµs pause-max=%.0fµs snapshot=%.0fB\n",
				res.Extra["ckpt_count"], res.Extra["ckpt_pause_mean_us"],
				res.Extra["ckpt_pause_max_us"], res.Extra["ckpt_bytes"])
		}
	}
	fmt.Println()
	for _, base := range []string{"sP-SMR", "sP-SMR/index"} {
		off := kcps[base+" ckpt=off"]
		for _, iv := range []string{"ckpt=1k", "ckpt=8k", "ckpt=64k"} {
			if on := kcps[base+" "+iv]; off > 0 && on > 0 {
				fmt.Printf("  %-14s %-9s checkpointed/off throughput: %.2fx\n", base, iv, on/off)
			}
		}
	}
	for _, res := range results {
		printCDF(res)
	}
	fmt.Println()
	return nil
}

// runObs runs the observability-overhead ablation: pipeline-stage
// tracing off / sampled 1-in-1024 / every command, on the scan and
// index engines under the 50/50 read/update kvstore workload. Traced
// rows print the per-stage latency breakdown table; the JSON rows
// carry the stage histograms plus the full registry snapshot. The
// headline number is the sampled/off throughput ratio — sampling is
// supposed to be free (≤3%, the make-verify gate), trace=all is the
// measured worst case.
func runObs(scale Scale, threads int) error {
	fmt.Println("==============================================================")
	fmt.Printf("Observability ablation — pipeline-stage tracing overhead\n")
	fmt.Printf("(sP-SMR, 50%%/50%% read/update kvstore, %d workers; tracing\n", threads)
	fmt.Println(" off / 1-in-1024 sampled / every command x scan/index engines)")
	kcps := map[string]float64{}
	var results []*bench.Result
	for _, setup := range experiment.ObsAblationSetups(scale, threads) {
		res, err := experiment.RunKV(setup)
		if err != nil {
			return fmt.Errorf("obs %v %s: %w", setup.Scheduler, setup.Tag, err)
		}
		kcps[res.Technique] = res.Kcps()
		results = append(results, res)
		fmt.Println(" ", res)
		if res.Breakdown != "" {
			fmt.Println(indent(res.Breakdown, "    "))
		}
	}
	fmt.Println()
	for _, base := range []string{"sP-SMR", "sP-SMR/index"} {
		off := kcps[base+" trace=off"]
		for _, row := range []string{"trace=1/1024", "trace=all"} {
			if on := kcps[base+" "+row]; off > 0 && on > 0 {
				fmt.Printf("  %-14s %-13s traced/off throughput: %.3fx\n", base, row, on/off)
			}
		}
	}
	for _, res := range results {
		printCDF(res)
	}
	if err := writeRowsJSON("BENCH_obs.json", results); err != nil {
		return err
	}
	fmt.Println("  wrote BENCH_obs.json")
	fmt.Println()
	return nil
}

// Overhead gates compare an instrumented configuration ("on") against
// the same workload with the instrumentation off. They run
// overheadPairs interleaved off/on pairs, alternating which side runs
// first so drift hits both sides alike, and pass when the median of
// the per-pair on/off throughput ratios is at least overheadBar. A
// single pair ratio on a 2-core host scatters over about ±10%; the
// median damps that, and a real regression (a hot-path stamp that
// allocates or takes a lock) shows up far below the bar.
const (
	overheadPairs = 7
	overheadBar   = 0.97
)

// runObsGate is the make-verify tracing gate: sampled (1/1024) tracing
// against tracing off on the e2e sP-SMR/index kv workload.
func runObsGate(scale Scale, threads int) error {
	fmt.Println("==============================================================")
	fmt.Printf("Observability gate — sampled tracing ≤3%% overhead\n")
	return overheadGate("obsgate",
		experiment.ObsGateSetup(scale, threads, -1),
		experiment.ObsGateSetup(scale, threads, 0))
}

// runFlightGate is the flight-recorder gate: the always-on black-box
// journal (the default) against the journal off, on the obs gate's
// workload. The journal is supposed to be cheap enough to never turn
// off — this is where that claim is enforced.
func runFlightGate(scale Scale, threads int) error {
	fmt.Println("==============================================================")
	fmt.Printf("Flight gate — always-on journal ≤3%% overhead\n")
	return overheadGate("flightgate",
		experiment.FlightGateSetup(scale, threads, true),
		experiment.FlightGateSetup(scale, threads, false))
}

// overheadGate runs the interleaved off/on pairs and applies
// overheadVerdict to their throughput ratios.
func overheadGate(name string, off, on experiment.KVSetup) error {
	sides := [2]experiment.KVSetup{off, on}
	ratios := make([]float64, 0, overheadPairs)
	for i := 0; i < overheadPairs; i++ {
		var kcps [2]float64
		for j := 0; j < 2; j++ {
			side := (i + j) % 2 // even pairs run off first, odd pairs on first
			res, err := experiment.RunKV(sides[side])
			if err != nil {
				return fmt.Errorf("%s pair %d: %w", name, i, err)
			}
			fmt.Printf("  %-3s %v\n", [2]string{"off", "on"}[side], res)
			kcps[side] = res.Kcps()
		}
		if kcps[0] <= 0 {
			return fmt.Errorf("%s: zero baseline throughput", name)
		}
		ratios = append(ratios, kcps[1]/kcps[0])
	}
	median, pass := overheadVerdict(ratios)
	fmt.Printf("  on/off pair ratios %.3f  median=%.3fx\n", ratios, median)
	if !pass {
		return fmt.Errorf("%s: median on/off throughput ratio %.3fx, want >= %.2fx", name, median, overheadBar)
	}
	fmt.Printf("  PASS: median overhead within the %.0f%% budget\n\n", 100*(1-overheadBar))
	return nil
}

// overheadVerdict returns the median of the per-pair on/off ratios
// (the mean of the middle two for an even count) and whether it clears
// overheadBar.
func overheadVerdict(ratios []float64) (median float64, pass bool) {
	if len(ratios) == 0 {
		return 0, false
	}
	sorted := append([]float64(nil), ratios...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	median = sorted[mid]
	if len(sorted)%2 == 0 {
		median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return median, median >= overheadBar
}

// indent prefixes every line of s (multi-line tables under a row).
func indent(s, prefix string) string {
	return prefix + strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n"+prefix)
}

// Scale aliases the experiment scale for brevity.
type Scale = experiment.Scale

func runTable1() error {
	fmt.Println("==============================================================")
	experiment.PrintTable1(os.Stdout)
	fmt.Println()
	return nil
}

func printCDF(res *bench.Result) {
	if res.Latency == nil || res.Latency.Count() == 0 {
		return
	}
	fmt.Printf("  %-10s CDF: p50=%v p90=%v p99=%v p99.9=%v max=%v\n",
		res.Technique,
		res.Latency.Quantile(0.50).Round(10*time.Microsecond),
		res.Latency.Quantile(0.90).Round(10*time.Microsecond),
		res.Latency.Quantile(0.99).Round(10*time.Microsecond),
		res.Latency.Quantile(0.999).Round(10*time.Microsecond),
		res.Latency.Max().Round(10*time.Microsecond))
}

func runFig3(scale Scale) error {
	fmt.Println("==============================================================")
	fmt.Println("Figure 3 — performance of independent commands (reads only)")
	fmt.Println("paper: no-rep 1.22X  SMR 1X  sP-SMR 1.14X  P-SMR 3.15X  BDB 0.2X")
	var results []*bench.Result
	for _, setup := range experiment.Fig3Setups(scale) {
		res, err := experiment.RunKV(setup)
		if err != nil {
			return fmt.Errorf("fig3 %v: %w", setup.Technique, err)
		}
		results = append(results, res)
		fmt.Println(" ", res)
	}
	fmt.Println()
	fmt.Print(bench.Table(results, "SMR"))
	for _, res := range results {
		printCDF(res)
	}
	fmt.Println()
	return nil
}

func runFig4(scale Scale) error {
	fmt.Println("==============================================================")
	fmt.Println("Figure 4 — performance of dependent commands (inserts+deletes)")
	fmt.Println("paper: no-rep 0.32X  SMR 1X  sP-SMR 0.28X  P-SMR 0.5X  BDB 0.12X")
	var results []*bench.Result
	for _, setup := range experiment.Fig4Setups(scale) {
		res, err := experiment.RunKV(setup)
		if err != nil {
			return fmt.Errorf("fig4 %v: %w", setup.Technique, err)
		}
		results = append(results, res)
		fmt.Println(" ", res)
	}
	fmt.Println()
	fmt.Print(bench.Table(results, "SMR"))
	for _, res := range results {
		printCDF(res)
	}
	fmt.Println()
	return nil
}

func runFig5(scale Scale) error {
	fmt.Println("==============================================================")
	fmt.Println("Figure 5 — scalability with threads (top: Kcps, bottom: per-thread)")
	fmt.Println("paper: only P-SMR gains from threads on independent commands;")
	fmt.Println("       all techniques degrade on dependent commands (BDB peaks at 4)")
	for _, p := range experiment.Fig5Points() {
		res, err := experiment.RunFig5Point(scale, p)
		if err != nil {
			return fmt.Errorf("fig5 %+v: %w", p, err)
		}
		kind := "independent"
		if p.Dependent {
			kind = "dependent"
		}
		fmt.Printf("  %-11s %-8s thr=%d  %9.1f Kcps  %8.1f Kcps/thread  cpu=%5.1f%%\n",
			kind, res.Technique, p.Threads, res.Kcps(), res.Kcps()/float64(p.Threads), res.CPUPercent)
	}
	fmt.Println()
	return nil
}

func runFig6(scale Scale) error {
	fmt.Println("==============================================================")
	fmt.Println("Figure 6 — mixed workloads: P-SMR(8) vs SMR by % dependent (log x)")
	fmt.Println("paper: P-SMR above SMR up to ~10% dependent commands; SMR flat")
	for _, tech := range []experiment.Technique{experiment.PSMR, experiment.SMR} {
		for _, pct := range experiment.Fig6Percentages() {
			res, err := experiment.RunFig6Point(scale, tech, pct)
			if err != nil {
				return fmt.Errorf("fig6 %v %.3f%%: %w", tech, pct, err)
			}
			fmt.Printf("  %-7s dep=%6.3f%%  %9.1f Kcps  mean=%v\n",
				res.Technique, pct, res.Kcps(), res.Latency.Mean().Round(10*time.Microsecond))
		}
	}
	fmt.Println()
	return nil
}

func runFig7(scale Scale) error {
	fmt.Println("==============================================================")
	fmt.Println("Figure 7 — skewed workloads (50% reads / 50% updates)")
	fmt.Println("paper: uniform P-SMR scales to core capacity; Zipf P-SMR bounded by")
	fmt.Println("       the most-loaded group; sP-SMR bounded by the scheduler")
	for _, zipfian := range []bool{false, true} {
		for _, tech := range []experiment.Technique{experiment.PSMR, experiment.SPSMR} {
			for _, threads := range []int{1, 2, 4, 6, 8} {
				res, err := experiment.RunFig7Point(scale, tech, threads, zipfian)
				if err != nil {
					return fmt.Errorf("fig7: %w", err)
				}
				fmt.Printf("  %-16s thr=%d  %9.1f Kcps  %8.1f Kcps/thread\n",
					res.Technique, threads, res.Kcps(), res.Kcps()/float64(threads))
			}
		}
	}
	fmt.Println()
	return nil
}

func runFig8(scale Scale) error {
	fmt.Println("==============================================================")
	fmt.Println("Figure 8 — NetFS 1 KB reads and writes (8 path ranges, lz4)")
	fmt.Println("paper: reads  SMR 1X  sP-SMR 1.07X  P-SMR 3.13X")
	fmt.Println("       writes SMR 1X  sP-SMR 1.04X  P-SMR 2.97X")
	for _, write := range []bool{false, true} {
		op := "reads"
		if write {
			op = "writes"
		}
		var results []*bench.Result
		for _, tech := range []experiment.Technique{experiment.SMR, experiment.SPSMR, experiment.PSMR} {
			res, err := experiment.RunFig8Point(scale, tech, write)
			if err != nil {
				return fmt.Errorf("fig8 %s %v: %w", op, tech, err)
			}
			results = append(results, res)
		}
		fmt.Printf("  -- %s --\n", op)
		fmt.Print(bench.Table(results, "SMR"))
		for _, res := range results {
			printCDF(res)
		}
	}
	fmt.Println()
	return nil
}

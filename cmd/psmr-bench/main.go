// Command psmr-bench regenerates the paper's evaluation (§VII) and the
// ablations that followed it: every entry of the experiment table
// (experiment.Entries), at configurable scale. Each entry prints its
// rows in one format — throughput in Kcps with the ratio to the row it
// is compared against, mean and p99 latency, server CPU and per-role
// CPU, the entry's registry columns — then the comparisons and the
// latency CDFs, and writes the rows to BENCH_<name>.json. The two
// overhead gates (obsgate, flightgate) instead judge interleaved
// off/on pairs.
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
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/psmr/psmr/internal/bench"
	"github.com/psmr/psmr/internal/experiment"
)

func main() {
	def := experiment.DefaultScale()
	var (
		exp      = flag.String("exp", "all", "experiment: "+strings.Join(experiment.Names(), "|")+"|all")
		threads  = flag.Int("threads", 8, "worker threads for the ablations and overhead gates")
		keys     = flag.Int("keys", def.Keys, "preloaded database keys (paper: 10M)")
		clients  = flag.Int("clients", def.Clients, "closed-loop clients")
		window   = flag.Int("window", def.Window, "outstanding commands per client (paper: 50)")
		duration = flag.Duration("duration", def.Duration, "measured interval per point")
		warmup   = flag.Duration("warmup", def.Warmup, "warmup before measuring")
	)
	flag.Parse()

	scale := experiment.Scale{
		Keys:     *keys,
		Clients:  *clients,
		Window:   *window,
		Duration: *duration,
		Warmup:   *warmup,
	}
	if err := run(os.Stdout, *exp, scale, *threads); err != nil {
		fmt.Fprintln(os.Stderr, "psmr-bench:", err)
		os.Exit(1)
	}
}

// run runs one entry of the table, or every entry but the gates.
func run(w io.Writer, exp string, scale experiment.Scale, threads int) error {
	if exp == "all" {
		for _, e := range experiment.Entries() {
			if e.Gate {
				continue
			}
			if err := runEntry(w, e, e.Rows(scale, threads)); err != nil {
				return err
			}
		}
		return nil
	}
	e, ok := experiment.Lookup(exp)
	if !ok {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	if e.Gate {
		return overheadGate(w, e, e.Rows(scale, threads))
	}
	return runEntry(w, e, e.Rows(scale, threads))
}

// runEntry measures rows in order, printing each as it completes (a
// row's baseline precedes it), then the comparisons and the latency
// CDFs, and writes the rows to BENCH_<name>.json.
func runEntry(w io.Writer, e experiment.Entry, rows []experiment.Row) error {
	printHeader(w, e)
	if len(rows) == 0 {
		fmt.Fprintln(w)
		return nil
	}
	results := make([]*bench.Result, 0, len(rows))
	byLabel := map[string]*bench.Result{}
	for _, row := range rows {
		res, err := row.Run()
		if err != nil {
			return fmt.Errorf("%s %s: %w", e.Name, row.Label(), err)
		}
		results = append(results, res)
		byLabel[row.Label()] = res
		printRow(w, e, res, byLabel[row.Base])
	}
	fmt.Fprintln(w)
	for i, row := range rows {
		if base := byLabel[row.Base]; base != nil && base.Kcps() > 0 {
			fmt.Fprintf(w, "  %-26s vs %-26s %.3fx\n", row.Label(), row.Base, results[i].Kcps()/base.Kcps())
		}
	}
	for _, res := range results {
		printCDF(w, res)
	}
	path := "BENCH_" + e.Name + ".json"
	if err := writeRowsJSON(path, results); err != nil {
		return err
	}
	fmt.Fprintf(w, "  wrote %s\n\n", path)
	return nil
}

func printHeader(w io.Writer, e experiment.Entry) {
	fmt.Fprintln(w, "==============================================================")
	fmt.Fprintln(w, e.Title)
	if e.Question != "" {
		fmt.Fprintln(w, e.Question)
	}
}

// printRow prints one measured row: label, threads, Kcps, the ratio to
// its baseline row (base, nil when it has none), mean and p99 latency
// and server CPU; then the per-role CPU, the entry's registry columns
// and, for traced rows of a breakdown entry, the per-stage latencies.
func printRow(w io.Writer, e experiment.Entry, res, base *bench.Result) {
	ratio := "-"
	if base != nil && base.Kcps() > 0 {
		ratio = fmt.Sprintf("%.2fx", res.Kcps()/base.Kcps())
	}
	var mean, p99 time.Duration
	if res.Latency != nil {
		mean, p99 = res.Latency.Mean(), res.Latency.Quantile(0.99)
	}
	fmt.Fprintf(w, "  %-26s thr=%-2d %9.1f Kcps %7s  mean=%8s  p99=%8s  cpu=%6.1f%%\n",
		res.Technique, res.Threads, res.Kcps(), ratio,
		mean.Round(time.Microsecond), p99.Round(time.Microsecond), res.CPUPercent)
	var roles []string
	for _, role := range bench.SortedRoles(res.CPUByRole) {
		roles = append(roles, fmt.Sprintf("%s=%.1f%%", role, res.CPUByRole[role]))
	}
	fmt.Fprintf(w, "    roles: %s\n", strings.Join(roles, " "))
	var cols []string
	for _, c := range e.Columns {
		if v, ok := c.Value(res.Extra); ok {
			// Counts print whole, ratios to three decimals.
			cols = append(cols, c.Name+"="+strconv.FormatFloat(math.Round(v*1000)/1000, 'f', -1, 64))
		}
	}
	if len(cols) > 0 {
		fmt.Fprintf(w, "    registry: %s\n", strings.Join(cols, " "))
	}
	if e.Breakdown {
		fmt.Fprint(w, res.Breakdown)
	}
}

func printCDF(w io.Writer, res *bench.Result) {
	if res.Latency == nil || res.Latency.Count() == 0 {
		return
	}
	fmt.Fprintf(w, "  %-26s CDF: p50=%v p90=%v p99=%v p99.9=%v max=%v\n",
		res.Technique,
		res.Latency.Quantile(0.50).Round(10*time.Microsecond),
		res.Latency.Quantile(0.90).Round(10*time.Microsecond),
		res.Latency.Quantile(0.99).Round(10*time.Microsecond),
		res.Latency.Quantile(0.999).Round(10*time.Microsecond),
		res.Latency.Max().Round(10*time.Microsecond))
}

// benchRow is the JSON shape of one row: its label, throughput,
// latency summary and the flattened metrics registry of its cluster.
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

// overheadGate runs a gate entry's off/on rows as interleaved pairs
// and applies overheadVerdict to their throughput ratios.
func overheadGate(w io.Writer, e experiment.Entry, rows []experiment.Row) error {
	printHeader(w, e)
	ratios := make([]float64, 0, overheadPairs)
	for i := 0; i < overheadPairs; i++ {
		var kcps [2]float64
		for j := 0; j < 2; j++ {
			side := (i + j) % 2 // even pairs run off first, odd pairs on first
			res, err := rows[side].Run()
			if err != nil {
				return fmt.Errorf("%s pair %d: %w", e.Name, i, err)
			}
			fmt.Fprintf(w, "  %-3s %v\n", [2]string{"off", "on"}[side], res)
			kcps[side] = res.Kcps()
		}
		if kcps[0] <= 0 {
			return fmt.Errorf("%s: zero baseline throughput", e.Name)
		}
		ratios = append(ratios, kcps[1]/kcps[0])
	}
	median, pass := overheadVerdict(ratios)
	fmt.Fprintf(w, "  on/off pair ratios %.3f  median=%.3fx\n", ratios, median)
	if !pass {
		return fmt.Errorf("%s: median on/off throughput ratio %.3fx, want >= %.2fx", e.Name, median, overheadBar)
	}
	fmt.Fprintf(w, "  PASS: median overhead within the %.0f%% budget\n\n", 100*(1-overheadBar))
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

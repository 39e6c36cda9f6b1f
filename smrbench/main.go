// Command smrbench is the repository benchmark. It runs one kvstore
// workload against an in-process psmr.Cluster: a closed-loop phase
// measures capacity, an open-loop phase at the workload's fixed rate
// measures latency, every reply and the replicas' final state are
// checked, and the last line of standard output is one JSON object with
// the metrics BENCHMARK.json names.
//
//	smrbench -workload kv-spsmr-write -seed 1 -seconds 30 -trace 0
//
// With -trace 1 it runs the workload once with the shipped defaults
// and once through the per-layer ledger (ledger.go) and reports the
// per-layer metrics instead. run.sh builds it and runs it from the
// repository root; NOTES.md explains the workloads and the metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// Load shape: at most nproc (2 on the reference host) client sessions,
// each keeping window calls outstanding in the closed loop.
const (
	sessions = 2
	window   = 50
	// warmUp runs the closed loop before its measured window.
	warmUp = time.Second
	// setupRuns is how many times the end-to-end run starts the cluster
	// to report the median set-up time.
	setupRuns = 5
	// runLimit stops a run that hangs well before the 180 s a run may take.
	runLimit = 170 * time.Second
	// Each closed-loop slot and each open-loop session cycles through
	// its own stream of this many generated operations.
	slotOps    = 1024
	sessionOps = 16384
)

// stamp identifies the run a result came from.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      int    `json:"trace"`
	Seconds    int    `json:"seconds"`
	RateCmdS   int    `json:"open_loop_cmd_per_s"`
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Kernel     string `json:"kernel"`
	Started    string `json:"started"`
}

// metricValue is one reported metric; N is the sample count behind a
// percentile (0 for other metrics).
type metricValue struct {
	Name  string
	Unit  string
	Value float64
	N     int
}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "seed the workload's commands are generated from")
	seconds := flag.Int("seconds", 30, "measured seconds: a third closed loop, the rest open loop")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics of a traced run instead of the end-to-end metrics")
	commit := flag.String("commit", "unknown", "source commit stamped on the result")
	outDir := flag.String("out", ".bench_build", "directory the traced run writes its ledger to")
	flag.Parse()

	w, err := findWorkload(*name)
	if err == nil && (*seconds < 3 || (*trace != 0 && *trace != 1)) {
		err = errors.New("need -seconds >= 3 and -trace 0 or 1")
	}
	if err == nil {
		err = checkSpecRate("BENCHMARK.json", w)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "smrbench:", err)
		return 2
	}
	time.AfterFunc(runLimit, func() {
		fmt.Fprintf(os.Stderr, "smrbench: run exceeded %v; goroutines:\n", runLimit)
		_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 1) // best effort before exiting
		os.Exit(1)
	})

	st := stamp{
		Workload: w.name, Seed: *seed, Trace: *trace, Seconds: *seconds, RateCmdS: w.rate,
		Commit: *commit, GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), Kernel: kernel(), Started: time.Now().UTC().Format(time.RFC3339),
	}
	line, _ := json.Marshal(st)
	fmt.Printf("stamp %s\n", line)

	total := time.Duration(*seconds) * time.Second
	ph := phases{closed: total / 3, open: total - total/3}
	var rep *report
	if *trace == 0 {
		rep, err = runEndToEnd(w, *seed, ph)
	} else {
		rep, err = runTraced(w, *seed, ph, filepath.Join(*outDir, fmt.Sprintf("ledger-%s-seed%d.jsonl", w.name, *seed)), st)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "smrbench:", err)
		return 1
	}
	res := result{Correct: rep.check == nil, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range rep.metrics {
		printMetric(m, "")
		res.Metrics[m.Name] = jsonMetric{Value: m.Value, Unit: m.Unit}
	}
	for _, m := range rep.printed {
		printMetric(m, " (printed only)")
	}
	for _, note := range rep.notes {
		fmt.Println(note)
	}
	if rep.check != nil {
		fmt.Fprintln(os.Stderr, "smrbench: correctness check failed:", rep.check)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "smrbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if rep.check != nil {
		return 1
	}
	return 0
}

// printMetric prints one metric as a human-readable line, with the
// sample count behind a percentile.
func printMetric(m metricValue, suffix string) {
	n := ""
	if m.N > 0 {
		n = fmt.Sprintf(" n=%d", m.N)
	}
	fmt.Printf("%-40s %14.4f %-12s%s%s\n", m.Name, m.Value, m.Unit, n, suffix)
}

package experiment

import (
	"fmt"
	"io"
	"strings"
	"time"

	psmr "github.com/psmr/psmr"
	"github.com/psmr/psmr/internal/bench"
	"github.com/psmr/psmr/internal/cdep"
	"github.com/psmr/psmr/internal/command"
	"github.com/psmr/psmr/internal/kvstore"
	"github.com/psmr/psmr/internal/workload"
)

// Scale globally sizes the experiments: database keys, client count,
// and measurement duration. The benchmarks use a small scale; the
// cmd/psmr-bench harness defaults to a larger one.
type Scale struct {
	Keys     int
	Clients  int
	Window   int
	Duration time.Duration
	Warmup   time.Duration
}

// DefaultScale is the harness's full-scale configuration.
func DefaultScale() Scale {
	return Scale{
		Keys:     1_000_000,
		Clients:  8,
		Window:   50,
		Duration: 4 * time.Second,
		Warmup:   500 * time.Millisecond,
	}
}

// QuickScale keeps runs short (benchmarks, smoke tests) while still
// offering enough outstanding requests (clients × window) to reach
// each technique's peak throughput, which is what the paper reports.
func QuickScale() Scale {
	return Scale{
		Keys:     50_000,
		Clients:  12,
		Window:   50,
		Duration: 1500 * time.Millisecond,
		Warmup:   300 * time.Millisecond,
	}
}

// Setup returns a key-value setup of technique t at this scale.
func (s Scale) Setup(t Technique, threads int) KVSetup {
	return KVSetup{Scale: s, Technique: t, Threads: threads}
}

// Entry is one experiment of the table: the question it answers, the
// rows that answer it, and the registry columns printed under each
// row.
type Entry struct {
	Name string
	// Title heads the printed entry; Question says what the rows
	// answer and, for the paper's figures, what the paper measured.
	Title, Question string
	// rows builds the entry's rows (nil for Table I, which has none).
	rows func(s Scale, threads int) []Row
	// Columns are registry-derived values printed under every row
	// whose registry carries them.
	Columns []Column
	// Breakdown prints the per-stage trace latency table under every
	// traced row.
	Breakdown bool
	// Gate marks an overhead gate: exactly two rows, instrumentation
	// off then on, judged on interleaved pairs (psmr-bench).
	Gate bool
}

// Rows builds the entry's rows at the given scale; threads sizes the
// ablations and gates (the paper's figures fix their own counts).
func (e Entry) Rows(s Scale, threads int) []Row {
	if e.rows == nil {
		return nil
	}
	return e.rows(s, threads)
}

// Row is one measurement of an entry.
type Row struct {
	KVSetup
	// NetFS, when set, makes this a NetFS row (Figure 8), measured by
	// RunNetFS instead of RunKV.
	NetFS *NetFSSetup
	// Base is the label of the earlier row of the same entry whose
	// throughput this row is compared against ("" = none).
	Base string
}

// Label names the row uniquely within its entry.
func (r Row) Label() string {
	if r.NetFS != nil {
		return r.NetFS.Label()
	}
	return r.KVSetup.Label()
}

// Run measures the row.
func (r Row) Run() (*bench.Result, error) {
	if r.NetFS != nil {
		return RunNetFS(*r.NetFS)
	}
	return RunKV(r.KVSetup)
}

// Column is one value derived from a row's flattened registry:
// Mul × ΣNum / ΣDen, where each name sums over all of its label sets
// (an empty Den divides by 1, a zero Mul multiplies by 1).
type Column struct {
	Name     string
	Num, Den []string
	Mul      float64
}

// Value computes the column; ok is false when a name is missing from
// extra (the row's cluster did not register it) or ΣDen is zero.
func (c Column) Value(extra map[string]float64) (v float64, ok bool) {
	sum := func(names []string) (total float64, ok bool) {
		for _, name := range names {
			found := false
			for key, val := range extra {
				if key == name || strings.HasPrefix(key, name+"{") {
					total, found = total+val, true
				}
			}
			if !found {
				return 0, false
			}
		}
		return total, true
	}
	num, ok := sum(c.Num)
	den, dok := 1.0, true
	if len(c.Den) > 0 {
		den, dok = sum(c.Den)
	}
	if !ok || !dok || den == 0 {
		return 0, false
	}
	if c.Mul != 0 {
		num *= c.Mul
	}
	return num / den, true
}

// The registry columns the ablations print.
var (
	// Speculation: hit rate over decided commands and what the
	// rollbacks withdrew.
	speculationColumns = []Column{
		{Name: "hit-rate%", Num: []string{"optimistic_hits_total"},
			Den: []string{"optimistic_hits_total", "optimistic_misses_total"}, Mul: 100},
		{Name: "hits", Num: []string{"optimistic_hits_total"}},
		{Name: "decided", Num: []string{"optimistic_hits_total", "optimistic_misses_total"}},
		{Name: "rollbacks", Num: []string{"optimistic_rollbacks_total"}},
		{Name: "rolled-back", Num: []string{"optimistic_rolled_back_total"}},
		{Name: "max-depth", Num: []string{"optimistic_rollback_depth_max"}},
		{Name: "ghosts", Num: []string{"optimistic_ghost_evictions_total"}},
	}
	// Checkpoints: count, the quiesce pause each costs, snapshot size.
	checkpointColumns = []Column{
		{Name: "ckpts", Num: []string{"checkpoint_snapshots_total"}},
		{Name: "pause-mean-us", Num: []string{"checkpoint_pause_ns_total"},
			Den: []string{"checkpoint_snapshots_total"}, Mul: 1e-3},
		{Name: "pause-max-us", Num: []string{"checkpoint_pause_max_ns"}, Mul: 1e-3},
		{Name: "snapshot-B", Num: []string{"checkpoint_snapshot_bytes"}},
	}
	// Ordering: the leader's inbound compression and the proxies'
	// batch fill.
	orderingColumns = []Column{
		{Name: "leader-frames/cmd", Num: []string{"ordering_leader_inbound_frames_total"},
			Den: []string{"ordering_leader_inbound_commands_total"}},
		{Name: "proxy-mean-batch", Num: []string{"proxy_queued_total"},
			Den: []string{"proxy_batches_total"}},
		{Name: "proxy-queued", Num: []string{"proxy_queued_total"}},
		{Name: "proxy-batches", Num: []string{"proxy_batches_total"}},
	}
	// Tracing: sampled and folded traces.
	traceColumns = []Column{
		{Name: "traces-sampled", Num: []string{"trace_sampled_total"}},
		{Name: "traces-folded", Num: []string{"trace_folded_total"}},
	}
)

// CoarseKVSpec is the paper's first C-G example (§IV-C) transplanted
// to the key-value store: inserts, deletes and updates depend on
// everything regardless of keys; reads are independent (random group).
func CoarseKVSpec() cdep.Spec {
	spec := cdep.Spec{
		Commands: []cdep.Command{
			{ID: kvstore.CmdInsert, Name: "insert", Key: kvstore.KeyOf},
			{ID: kvstore.CmdDelete, Name: "delete", Key: kvstore.KeyOf},
			{ID: kvstore.CmdRead, Name: "read", Key: kvstore.KeyOf},
			{ID: kvstore.CmdUpdate, Name: "update", Key: kvstore.KeyOf},
		},
	}
	writers := []command.ID{kvstore.CmdInsert, kvstore.CmdDelete, kvstore.CmdUpdate}
	all := append(append([]command.ID{}, writers...), kvstore.CmdRead)
	for _, w := range writers {
		for _, other := range all {
			spec.Deps = append(spec.Deps, cdep.Dep{A: w, B: other})
		}
	}
	return spec
}

// table1 is the paper's Table I (delivery/execution parallelism
// matrix), the structural summary of the three SMR variants.
const table1 = `command...   delivery     execution
SMR          sequential   sequential
sP-SMR       sequential   parallel
P-SMR        parallel     parallel
SMR runs 1 delivery stream / 1 executor; sP-SMR 1 stream + scheduler
+ worker pool; P-SMR k+1 streams merged pairwise into k executors.`

const table1Title = "Table I — degrees of parallelism in state-machine replication"

// PrintTable1 prints the paper's Table I.
func PrintTable1(w io.Writer) {
	fmt.Fprintln(w, table1Title)
	fmt.Fprintln(w, table1)
}

// Entries returns the experiment table: the paper's Table I and
// Figures 3-8, the ablations, and the two overhead gates.
func Entries() []Entry {
	return []Entry{
		{Name: "table1", Title: table1Title, Question: table1},
		// Independent commands: read-only workload at each technique's
		// peak thread count (§VII-C: 8 for P-SMR, 2 for sP-SMR and
		// no-rep, 1 for SMR, 6 for BDB).
		{
			Name:     "fig3",
			Title:    "Figure 3 — performance of independent commands (reads only)",
			Question: "paper: no-rep 1.22X  SMR 1X  sP-SMR 1.14X  P-SMR 3.15X  BDB 0.2X",
			rows: func(s Scale, _ int) []Row {
				return vsSMR(s, workload.KVReads, map[Technique]int{SMR: 1, NoRep: 2, SPSMR: 2, PSMR: 8, BDB: 6})
			},
		},
		// Dependent commands: insert/delete-only workload, 1 thread
		// everywhere except BDB's 4 (§VII-D).
		{
			Name:     "fig4",
			Title:    "Figure 4 — performance of dependent commands (inserts+deletes)",
			Question: "paper: no-rep 0.32X  SMR 1X  sP-SMR 0.28X  P-SMR 0.5X  BDB 0.12X",
			rows: func(s Scale, _ int) []Row {
				return vsSMR(s, workload.KVInsertsDeletes, map[Technique]int{SMR: 1, NoRep: 1, SPSMR: 1, PSMR: 1, BDB: 4})
			},
		},
		// Scalability: threads 1..8 for each multithreaded technique,
		// independent and dependent workloads; each row is compared
		// against the same technique at one thread.
		{
			Name:  "fig5",
			Title: "Figure 5 — scalability with threads (ratio: vs 1 thread)",
			Question: "paper: only P-SMR gains from threads on independent commands;\n" +
				"       all techniques degrade on dependent commands (BDB peaks at 4)",
			rows: func(s Scale, _ int) []Row {
				var rows []Row
				for _, t := range []Technique{NoRep, SPSMR, PSMR, BDB} {
					rows = append(rows, threadSweep(s, t, workload.KVReads, "indep")...)
				}
				for _, t := range []Technique{NoRep, SPSMR, PSMR, BDB} {
					rows = append(rows, threadSweep(s, t, workload.KVInsertsDeletes, "dep")...)
				}
				return rows
			},
		},
		// Mixed workloads: P-SMR (8 workers) against SMR as the share
		// of dependent commands grows (the paper's log-scale x-axis).
		{
			Name:     "fig6",
			Title:    "Figure 6 — mixed workloads: P-SMR(8) vs SMR by % dependent (log x)",
			Question: "paper: P-SMR above SMR up to ~10% dependent commands; SMR flat",
			rows: func(s Scale, _ int) []Row {
				var rows []Row
				for _, pct := range []float64{0.001, 0.01, 0.1, 1, 10} {
					smr := s.Setup(SMR, 1)
					smr.Gen = func(keys workload.KeyGen) workload.Generator { return workload.KVMixed(keys, pct) }
					smr.Tag = fmt.Sprintf("dep=%g%%", pct)
					rows = append(rows, sweep(smr, []Technique{SMR, PSMR}, func(k *KVSetup, t Technique) {
						if t == PSMR {
							k.Technique, k.Threads = PSMR, 8
						}
					})...)
				}
				return rows
			},
		},
		// Skewed workloads: 50% reads / 50% updates with uniform or
		// Zipf(1) key selection, P-SMR vs sP-SMR across thread counts.
		{
			Name:  "fig7",
			Title: "Figure 7 — skewed workloads (50% reads / 50% updates; ratio: vs 1 thread)",
			Question: "paper: uniform P-SMR scales to core capacity; Zipf P-SMR bounded by\n" +
				"       the most-loaded group; sP-SMR bounded by the scheduler",
			rows: func(s Scale, _ int) []Row {
				zipf := workload.NewZipf(1.0, uint64(s.Keys))
				skewed := func(workload.KeyGen) workload.Generator { return workload.KVReadUpdate(zipf) }
				var rows []Row
				for _, t := range []Technique{PSMR, SPSMR} {
					rows = append(rows, threadSweep(s, t, workload.KVReadUpdate, "uniform")...)
				}
				for _, t := range []Technique{PSMR, SPSMR} {
					rows = append(rows, threadSweep(s, t, skewed, "zipf")...)
				}
				return rows
			},
		},
		// NetFS reads and writes: SMR, sP-SMR and P-SMR with 8 path
		// ranges, 1 KB I/O, each compared against SMR.
		{
			Name:  "fig8",
			Title: "Figure 8 — NetFS 1 KB reads and writes (8 path ranges, lz4)",
			Question: "paper: reads  SMR 1X  sP-SMR 1.07X  P-SMR 3.13X\n" +
				"       writes SMR 1X  sP-SMR 1.04X  P-SMR 2.97X",
			rows: func(s Scale, _ int) []Row {
				var rows []Row
				for _, write := range []bool{false, true} {
					var base string
					for _, t := range []Technique{SMR, SPSMR, PSMR} {
						// NetFSSetup's defaults: 8 path ranges, 64 KB files,
						// 1 KB I/O.
						fs := &NetFSSetup{Technique: t, Files: 256, Write: write, Clients: s.Clients,
							Window: s.Window, Duration: s.Duration, Warmup: s.Warmup}
						rows = append(rows, Row{NetFS: fs, Base: base})
						if base == "" {
							base = fs.Label()
						}
					}
				}
				return rows
			},
		},
		// Scan vs index scheduling: sP-SMR and no-rep under the
		// update-heavy kvstore workload (every command keyed, none
		// independent — the workload that keeps the scan scheduler's
		// conflict bookkeeping busiest). The scan rows reproduce the
		// paper's scheduler bottleneck; the index rows measure the
		// early scheduler that removes it. The claim is about where
		// cycles go: under scan the scheduler role burns a core's worth
		// of admission work, under index it should shrink to noise.
		{
			Name:  "sched",
			Title: "Scheduler ablation — scan vs index-based early scheduling",
			Question: "(update-heavy kvstore; paper §VI-B: the scan scheduler\n" +
				" saturates one core while workers idle)",
			rows: func(s Scale, threads int) []Row {
				var rows []Row
				for _, t := range []Technique{SPSMR, NoRep} {
					scan := s.Setup(t, threads)
					scan.Gen = workload.KVUpdates
					rows = append(rows, sweep(scan, engines, setEngine)...)
				}
				return rows
			},
		},
		// Admission on the index engine: reader sets on/off × work
		// stealing on/off under the 50/50 read/update workload. Reads
		// exercise the reader sets (the workload has no independent
		// commands, so stealing only matters when the other knob skews
		// queues); the all-on row is the production pipeline. Decided
		// batches are always admitted whole.
		{
			Name:     "admit",
			Title:    "Admission ablation — index-engine pipeline knobs",
			Question: "(sP-SMR/index, 50%/50% read/update kvstore; reader sets x work stealing)",
			rows: func(s Scale, threads int) []Row {
				return sweep(readUpdate(s, threads, psmr.SchedIndex), []psmr.SchedTuning{
					{NoReaderSets: true, NoSteal: true}, {NoReaderSets: true},
					{NoSteal: true}, {},
				}, func(k *KVSetup, t psmr.SchedTuning) { k.Tuning, k.Tag = t, t.Label() })
			},
		},
		// Barrier vs multi-key: the two-key transfer under a single-key
		// C-G (every transfer an all-worker barrier — the
		// synchronous-mode serialization a single-key C-G forces on
		// multi-object commands) against the key-set C-Dep (only the
		// touched keys' owners take part; on the index engine, the
		// deposit-and-continue handoff), on both scheduling engines.
		{
			Name:     "multikey",
			Title:    "Multi-key ablation — barrier C-G vs key-set C-Dep",
			Question: "(sP-SMR, 50%/50% transfer/read kvstore; scan and index engines;\n transfers hold only their two keys' owners)",
			rows: func(s Scale, threads int) []Row {
				// The barrier baseline declares the transfer always-
				// conflicting with itself, which is what a single-object
				// C-G forces on a multi-object command: the compiler
				// promotes it to Global and every transfer becomes an
				// all-worker barrier.
				barrierSpec := kvstore.Spec()
				barrierSpec.Deps = append(barrierSpec.Deps, cdep.Dep{A: kvstore.CmdTransfer, B: kvstore.CmdTransfer})
				var rows []Row
				for _, kind := range engines {
					setup := s.Setup(SPSMR, threads)
					setup.Gen = workload.KVTransferMix
					setup.Scheduler = kind
					rows = append(rows, sweep(setup, []bool{true, false}, func(k *KVSetup, barrier bool) {
						k.Tag = "multikey-cg"
						if barrier {
							k.Spec, k.Tag = &barrierSpec, "barrier-cg"
						}
					})...)
				}
				return rows
			},
		},
		// Optimistic execution: speculation off/on × scan/index engines
		// × collision rate (percentage of hot-set two-key transfers; the
		// rest are conflict-free reads). Under a stable leader the
		// optimistic and decided orders agree, so rollbacks stay near
		// zero even at high collision rates — the sweep measures what
		// the speculation machinery costs when conflicts are dense,
		// while the rollback entry measures what rollback costs when
		// orders diverge.
		{
			Name:     "optimistic",
			Title:    "Optimistic ablation — speculate on the unordered stream, reconcile on consensus",
			Question: "(sP-SMR; reads + hot-set transfers at 0/10/50% collision; scan and index engines)",
			Columns:  speculationColumns,
			rows: func(s Scale, threads int) []Row {
				var rows []Row
				for _, col := range []float64{0, 10, 50} {
					for _, kind := range engines {
						off := collisionMix(s, threads, col)
						off.Scheduler = kind
						rows = append(rows, sweep(off, []bool{false, true}, func(k *KVSetup, on bool) { k.Optimistic = on })...)
					}
				}
				return rows
			},
		},
		// Rollback model: the decided-path baseline every speculative
		// row must beat against speculation with forced optimistic/
		// decided reordering, so every rollback goes through the
		// mvstore epoch abort (O(touched keys), not O(state)
		// clone-replay). The store-size side of the story — abort cost
		// flat in store size — is the root BenchmarkRollbackDepth
		// microbench, which a throughput sweep cannot show.
		{
			Name:     "rollback",
			Title:    "Rollback ablation — decided-path baseline vs mvstore epoch abort",
			Question: "(sP-SMR/index; forced optimistic reordering; 0/10/50% collision workload)",
			Columns:  speculationColumns,
			rows: func(s Scale, threads int) []Row {
				var rows []Row
				for _, col := range []float64{0, 10, 50} {
					off := collisionMix(s, threads, col)
					off.Scheduler = psmr.SchedIndex
					rows = append(rows, sweep(off, []int{0, 2}, func(k *KVSetup, reorder int) {
						k.Optimistic, k.OptimisticReorder = reorder > 0, reorder
					})...)
				}
				return rows
			},
		},
		// Checkpoint interval: coordinated checkpoints off / every 1k /
		// 8k / 64k decided commands on both engines. The interval
		// trades learner memory (retention is bounded by the interval)
		// against the quiesce pause the global-barrier snapshot imposes,
		// so the cost of crash-recoverability is measured rather than
		// guessed.
		{
			Name:  "checkpoint",
			Title: "Checkpoint ablation — coordinated on-barrier snapshots",
			Question: "(sP-SMR, 50%/50% read/update kvstore; interval off/1k/8k/64k decided\n" +
				" commands x scan/index engines; the quiesce pause is what a snapshot costs)",
			Columns: checkpointColumns,
			rows: func(s Scale, threads int) []Row {
				var rows []Row
				for _, kind := range engines {
					rows = append(rows, sweep(readUpdate(s, threads, kind), []int{0, 1_000, 8_000, 64_000},
						func(k *KVSetup, interval int) {
							k.CheckpointInterval, k.Tag = interval, fmt.Sprintf("ckpt=%dk", interval/1000)
							if interval == 0 {
								k.Tag = "ckpt=off"
							}
						})...)
				}
				return rows
			},
		},
		// Compartmentalized ordering: the proxy-proposer tier (0/1/2/4
		// ingress proxies) crossed with learner fan-out off/on (2
		// delivery stripes per group). The p=0,fan=0 row is the
		// direct-submission baseline; the ordering columns are where
		// the claim (batching relieves the leader's ingress, relays
		// relieve its egress) is measured rather than guessed.
		{
			Name:  "compartment",
			Title: "Compartment ablation — proxy-proposer tier and learner fan-out",
			Question: "(sP-SMR/index, 50%/50% read/update kvstore; proxies 0/1/2/4 x fan-out\n" +
				" off/2 stripes; p=0,fan=0 is the direct-submission baseline)",
			Columns: orderingColumns,
			rows: func(s Scale, threads int) []Row {
				return sweep(readUpdate(s, threads, psmr.SchedIndex),
					[][2]int{{0, 0}, {1, 0}, {2, 0}, {4, 0}, {0, 2}, {1, 2}, {2, 2}, {4, 2}},
					func(k *KVSetup, pf [2]int) { k.Proxies, k.Fanout = pf[0], pf[1] })
			},
		},
		// Observability overhead: pipeline-stage tracing off / sampled
		// 1-in-1024 / on every command, on both engines. The off rows
		// are the baseline the ≤3% sampled-overhead claim is gated
		// against (obsgate); trace=all bounds the worst case and is
		// expected to cost real throughput — that is why sampling
		// exists.
		{
			Name:      "obs",
			Title:     "Observability ablation — pipeline-stage tracing overhead",
			Question:  "(sP-SMR, 50%/50% read/update kvstore; tracing off / 1-in-1024 sampled /\n every command x scan/index engines)",
			Columns:   traceColumns,
			Breakdown: true,
			rows: func(s Scale, threads int) []Row {
				var rows []Row
				for _, kind := range engines {
					rows = append(rows, sweep(readUpdate(s, threads, kind), []int{-1, 0, 1}, setTrace)...)
				}
				return rows
			},
		},
		// The sampled-tracing gate: 1/1024 tracing against tracing off
		// on the sP-SMR/index 50/50 read/update workload.
		{
			Name:     "obsgate",
			Title:    "Observability gate — sampled tracing ≤3% overhead",
			Question: "(sP-SMR/index, 50%/50% read/update kvstore; interleaved off/on pairs)",
			Gate:     true,
			rows: func(s Scale, threads int) []Row {
				return sweep(readUpdate(s, threads, psmr.SchedIndex), []int{-1, 0}, setTrace)
			},
		},
		// The flight-recorder gate: the always-on black-box journal
		// (the default) against the journal off, on the obs gate's
		// workload. Tracing runs at the 1/1024 default on both sides
		// so the journal-on row exercises the real emit path (stage
		// events plus component events), isolating the journal's
		// marginal cost. The journal is supposed to be cheap enough to
		// never turn off — this is where that claim is enforced.
		{
			Name:     "flightgate",
			Title:    "Flight gate — always-on journal ≤3% overhead",
			Question: "(sP-SMR/index, 50%/50% read/update kvstore; interleaved off/on pairs)",
			Gate:     true,
			rows: func(s Scale, threads int) []Row {
				return sweep(readUpdate(s, threads, psmr.SchedIndex), []bool{true, false}, func(k *KVSetup, off bool) {
					k.JournalOff, k.Tag = off, "journal=on"
					if off {
						k.Tag = "journal=off"
					}
				})
			},
		},
	}
}

// Lookup returns the entry named name.
func Lookup(name string) (Entry, bool) {
	for _, e := range Entries() {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// Names lists the table's entry names in table order.
func Names() []string {
	var names []string
	for _, e := range Entries() {
		names = append(names, e.Name)
	}
	return names
}

// sweep applies each value of one axis to a copy of base, in order;
// the first value's row is the baseline every later row is compared
// against.
func sweep[T any](base KVSetup, values []T, set func(*KVSetup, T)) []Row {
	var rows []Row
	for _, v := range values {
		setup := base
		set(&setup, v)
		row := Row{KVSetup: setup}
		if len(rows) > 0 {
			row.Base = rows[0].Label()
		}
		rows = append(rows, row)
	}
	return rows
}

// engines are the two scheduling engines the ablations cross.
var engines = []psmr.SchedulerKind{psmr.SchedScan, psmr.SchedIndex}

func setEngine(k *KVSetup, kind psmr.SchedulerKind) { k.Scheduler = kind }

// setTrace sets the trace sampling (-1 off, 0 the 1/1024 default, 1
// every command) and tags the row with it.
func setTrace(k *KVSetup, sample int) {
	k.TraceSample, k.Tag = sample, [...]string{"trace=off", "trace=1/1024", "trace=all"}[sample+1]
}

// vsSMR runs SMR, no-rep, sP-SMR, P-SMR and BDB at the given thread
// counts under gen, each compared against SMR (the paper's "N X"
// annotations).
func vsSMR(s Scale, gen func(workload.KeyGen) workload.Generator, threads map[Technique]int) []Row {
	base := s.Setup(SMR, threads[SMR])
	base.Gen = gen
	return sweep(base, []Technique{SMR, NoRep, SPSMR, PSMR, BDB}, func(k *KVSetup, t Technique) {
		k.Technique, k.Threads = t, threads[t]
	})
}

// threadSweep runs t at 1..8 threads (the x-axis of the paper's
// scalability figures) under gen, tagging each row with kind and its
// thread count, each compared against the 1-thread row.
func threadSweep(s Scale, t Technique, gen func(workload.KeyGen) workload.Generator, kind string) []Row {
	base := s.Setup(t, 1)
	base.Gen = gen
	return sweep(base, []int{1, 2, 4, 6, 8}, func(k *KVSetup, th int) {
		k.Threads, k.Tag = th, fmt.Sprintf("%s thr=%d", kind, th)
	})
}

// collisionMix is sP-SMR under the collision mix: pct% hot-set
// two-key transfers, the rest conflict-free reads.
func collisionMix(s Scale, threads int, pct float64) KVSetup {
	setup := s.Setup(SPSMR, threads)
	setup.Gen = func(keys workload.KeyGen) workload.Generator {
		return workload.KVCollisionMix(keys, pct)
	}
	setup.Tag = fmt.Sprintf("col=%g%%", pct)
	return setup
}

// readUpdate is sP-SMR on the given engine under the 50/50
// read/update workload (on the index engine, the e2e configuration the
// overhead gates measure).
func readUpdate(s Scale, threads int, kind psmr.SchedulerKind) KVSetup {
	setup := s.Setup(SPSMR, threads)
	setup.Gen = workload.KVReadUpdate
	setup.Scheduler = kind
	return setup
}

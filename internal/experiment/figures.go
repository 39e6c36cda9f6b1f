package experiment

import (
	"fmt"
	"io"
	"time"

	psmr "github.com/psmr/psmr"
	"github.com/psmr/psmr/internal/bench"
	"github.com/psmr/psmr/internal/cdep"
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

func (s Scale) kvSetup(t Technique, threads int) KVSetup {
	return KVSetup{
		Technique: t,
		Threads:   threads,
		Keys:      s.Keys,
		Clients:   s.Clients,
		Window:    s.Window,
		Duration:  s.Duration,
		Warmup:    s.Warmup,
	}
}

// Fig3Setups returns the independent-command comparison (paper
// Figure 3): read-only workload at each technique's peak thread count
// (§VII-C: 8 for P-SMR, 2 for sP-SMR and no-rep, 1 for SMR, 6 for BDB).
func Fig3Setups(scale Scale) []KVSetup {
	mk := func(t Technique, threads int) KVSetup {
		setup := scale.kvSetup(t, threads)
		setup.Gen = workload.KVReads
		return setup
	}
	return []KVSetup{
		mk(NoRep, 2),
		mk(SMR, 1),
		mk(SPSMR, 2),
		mk(PSMR, 8),
		mk(BDB, 6),
	}
}

// Fig4Setups returns the dependent-command comparison (paper
// Figure 4): insert/delete-only workload, 1 thread everywhere except
// BDB's 4 (§VII-D).
func Fig4Setups(scale Scale) []KVSetup {
	mk := func(t Technique, threads int) KVSetup {
		setup := scale.kvSetup(t, threads)
		setup.Gen = workload.KVInsertsDeletes
		return setup
	}
	return []KVSetup{
		mk(NoRep, 1),
		mk(SMR, 1),
		mk(SPSMR, 1),
		mk(PSMR, 1),
		mk(BDB, 4),
	}
}

// Fig5Point is one point of the scalability sweep.
type Fig5Point struct {
	Technique Technique
	Threads   int
	Dependent bool
}

// Fig5Points returns the scalability sweep (paper Figure 5): threads
// 1..8 for each multithreaded technique, independent and dependent
// workloads.
func Fig5Points() []Fig5Point {
	threads := []int{1, 2, 4, 6, 8}
	techniques := []Technique{NoRep, SPSMR, PSMR, BDB}
	var points []Fig5Point
	for _, dep := range []bool{false, true} {
		for _, tech := range techniques {
			for _, th := range threads {
				points = append(points, Fig5Point{Technique: tech, Threads: th, Dependent: dep})
			}
		}
	}
	return points
}

// RunFig5Point measures one scalability point.
func RunFig5Point(scale Scale, p Fig5Point) (*bench.Result, error) {
	setup := scale.kvSetup(p.Technique, p.Threads)
	if p.Dependent {
		setup.Gen = workload.KVInsertsDeletes
	} else {
		setup.Gen = workload.KVReads
	}
	return RunKV(setup)
}

// Fig6Percentages is the paper's dependent-command mix sweep (log
// scale x-axis of Figure 6).
func Fig6Percentages() []float64 {
	return []float64{0.001, 0.01, 0.1, 1, 10}
}

// RunFig6Point measures P-SMR (8 workers) or SMR under a mixed
// workload with the given percentage of dependent commands.
func RunFig6Point(scale Scale, t Technique, dependentPct float64) (*bench.Result, error) {
	threads := 1
	if t == PSMR {
		threads = 8
	}
	setup := scale.kvSetup(t, threads)
	setup.Gen = func(keys workload.KeyGen) workload.Generator {
		return workload.KVMixed(keys, dependentPct)
	}
	res, err := RunKV(setup)
	if err != nil {
		return nil, err
	}
	res.Extra = map[string]float64{"dependent_pct": dependentPct}
	return res, nil
}

// RunFig7Point measures the skewed workload (paper Figure 7): 50%
// reads / 50% updates with uniform or Zipf(1) key selection, P-SMR vs
// sP-SMR across thread counts.
func RunFig7Point(scale Scale, t Technique, threads int, zipfian bool) (*bench.Result, error) {
	setup := scale.kvSetup(t, threads)
	if zipfian {
		setup.KeyGen = workload.NewZipf(1.0, uint64(setup.Keys))
	}
	setup.Gen = workload.KVReadUpdate
	res, err := RunKV(setup)
	if err != nil {
		return nil, err
	}
	dist := "uniform"
	if zipfian {
		dist = "zipf"
	}
	if res.Extra == nil {
		res.Extra = map[string]float64{}
	}
	res.Technique = fmt.Sprintf("%s/%s", t, dist)
	return res, nil
}

// RunFig8Point measures NetFS reads or writes for one technique
// (paper Figure 8; SMR, sP-SMR and P-SMR with 8 path ranges).
func RunFig8Point(scale Scale, t Technique, write bool) (*bench.Result, error) {
	setup := NetFSSetup{
		Technique: t,
		Threads:   8,
		Files:     256,
		FileSize:  64 * 1024,
		Write:     write,
		IOSize:    1024,
		Clients:   scale.Clients,
		Window:    scale.Window,
		Duration:  scale.Duration,
		Warmup:    scale.Warmup,
	}
	return RunNetFS(setup)
}

// SchedAblationSetups returns the scan-vs-index scheduler ablation:
// sP-SMR and no-rep at the given worker count under the update-heavy
// kvstore workload (every command keyed, none independent — the
// workload that keeps the scan scheduler's conflict bookkeeping
// busiest). The scan rows reproduce the paper's scheduler bottleneck;
// the index rows measure the early scheduler that removes it.
func SchedAblationSetups(scale Scale, threads int) []KVSetup {
	mk := func(t Technique, kind psmr.SchedulerKind) KVSetup {
		setup := scale.kvSetup(t, threads)
		setup.Gen = workload.KVUpdates
		setup.Scheduler = kind
		return setup
	}
	return []KVSetup{
		mk(SPSMR, psmr.SchedScan),
		mk(SPSMR, psmr.SchedIndex),
		mk(NoRep, psmr.SchedScan),
		mk(NoRep, psmr.SchedIndex),
	}
}

// AdmitAblationSetups returns the admission ablation: sP-SMR on the
// index engine under the 50/50 read/update kvstore workload, sweeping
// reader sets on/off × work stealing on/off. Reads exercise the reader
// sets (the workload has no independent commands, so stealing only
// matters when the other knob skews queues); the all-on row is the
// production pipeline.
func AdmitAblationSetups(scale Scale, threads int) []KVSetup {
	var setups []KVSetup
	for _, nors := range []bool{true, false} {
		for _, nosteal := range []bool{true, false} {
			setup := scale.kvSetup(SPSMR, threads)
			setup.Gen = workload.KVReadUpdate
			setup.Scheduler = psmr.SchedIndex
			setup.Tuning = psmr.SchedTuning{
				NoReaderSets: nors,
				NoSteal:      nosteal,
			}
			setup.TagTuning = true
			setups = append(setups, setup)
		}
	}
	return setups
}

// BarrierTransferSpec returns the multi-key ablation's baseline C-Dep:
// the kvstore spec with the transfer declared always-conflicting with
// itself, which is what a single-object C-G forces on a multi-object
// command — the compiler promotes it to Global and every transfer
// becomes an all-worker barrier.
func BarrierTransferSpec() cdep.Spec {
	spec := kvstore.Spec()
	spec.Deps = append(spec.Deps, cdep.Dep{A: kvstore.CmdTransfer, B: kvstore.CmdTransfer})
	return spec
}

// MultiKeyAblationSetups returns the barrier-vs-multikey ablation:
// sP-SMR under the 50/50 transfer/read kvstore workload, sweeping the
// C-G treatment of the two-key transfer (barrier baseline vs key-set
// routing) across both scheduling engines. The barrier rows reproduce
// the synchronous-mode serialization a single-key C-G forces on
// multi-object commands; the multikey rows measure the key-set fast
// path that replaces it (on the index engine, the deposit-and-continue
// handoff over the touched keys' owners).
func MultiKeyAblationSetups(scale Scale, threads int) []KVSetup {
	barrierSpec := BarrierTransferSpec()
	var setups []KVSetup
	for _, barrier := range []bool{true, false} {
		for _, kind := range []psmr.SchedulerKind{psmr.SchedScan, psmr.SchedIndex} {
			setup := scale.kvSetup(SPSMR, threads)
			setup.Gen = workload.KVTransferMix
			setup.Scheduler = kind
			if barrier {
				setup.Spec = &barrierSpec
				setup.Tag = "barrier-cg"
			} else {
				setup.Tag = "multikey-cg"
			}
			setups = append(setups, setup)
		}
	}
	return setups
}

// OptimisticAblationSetups returns the optimistic-execution ablation:
// sP-SMR with speculation off/on × scan/index engines × collision
// rates (percentage of hot-set two-key transfers in the workload; the
// rest are conflict-free reads). The off rows are the decided-path
// baseline; the on rows additionally report hit-rate and rollback
// counters in Result.Extra. Under a stable leader the optimistic and
// decided orders agree, so rollbacks stay near zero even at high
// collision rates — the collision sweep measures what the speculation
// machinery COSTS when conflicts are dense, while OptimisticReorder
// (tests) exercises what rollback costs when orders diverge.
func OptimisticAblationSetups(scale Scale, threads int) []KVSetup {
	var setups []KVSetup
	for _, collision := range []float64{0, 10, 50} {
		for _, kind := range []psmr.SchedulerKind{psmr.SchedScan, psmr.SchedIndex} {
			for _, opt := range []bool{false, true} {
				pct := collision
				setup := scale.kvSetup(SPSMR, threads)
				setup.Gen = func(keys workload.KeyGen) workload.Generator {
					return workload.KVCollisionMix(keys, pct)
				}
				setup.Scheduler = kind
				setup.Optimistic = opt
				setup.Tag = fmt.Sprintf("col=%g%%", pct)
				setups = append(setups, setup)
			}
		}
	}
	return setups
}

// RollbackAblationSetups returns the rollback-model ablation: sP-SMR
// under collision-mix workloads (0/10/50% hot-set two-key transfers)
// with speculation off (the decided-path baseline every speculative
// row must beat) and speculation on with forced optimistic/decided
// reordering (every rollback goes through the mvstore epoch-abort
// path — O(touched keys), not O(state) clone-replay). The speculative
// rows report hit-rate and rollback counters in Result.Extra;
// psmr-bench additionally writes them to BENCH_rollback.json. The
// netfs side of the rollback story — abort cost flat in store size —
// is the root BenchmarkRollbackDepth microbench, which a throughput
// sweep cannot show.
func RollbackAblationSetups(scale Scale, threads int) []KVSetup {
	var setups []KVSetup
	for _, collision := range []float64{0, 10, 50} {
		for _, opt := range []bool{false, true} {
			pct := collision
			setup := scale.kvSetup(SPSMR, threads)
			setup.Gen = func(keys workload.KeyGen) workload.Generator {
				return workload.KVCollisionMix(keys, pct)
			}
			setup.Scheduler = psmr.SchedIndex
			setup.Optimistic = opt
			if opt {
				setup.OptimisticReorder = 2
			}
			setup.Tag = fmt.Sprintf("col=%g%%", pct)
			setups = append(setups, setup)
		}
	}
	return setups
}

// CheckpointAblationSetups returns the checkpoint-interval sweep:
// sP-SMR under the 50/50 read/update kvstore workload with coordinated
// checkpoints off / every 1k / 8k / 64k decided commands, on both
// scheduling engines. The interval trades learner memory (retention is
// bounded by the interval) against the quiesce pause the global-
// barrier snapshot imposes — the rows report throughput plus the
// measured pause and snapshot size so the cost of crash-recoverability
// is quantified rather than guessed.
func CheckpointAblationSetups(scale Scale, threads int) []KVSetup {
	var setups []KVSetup
	for _, kind := range []psmr.SchedulerKind{psmr.SchedScan, psmr.SchedIndex} {
		for _, interval := range []int{0, 1_000, 8_000, 64_000} {
			setup := scale.kvSetup(SPSMR, threads)
			setup.Gen = workload.KVReadUpdate
			setup.Scheduler = kind
			setup.CheckpointInterval = interval
			if interval == 0 {
				setup.Tag = "ckpt=off"
			} else {
				setup.Tag = fmt.Sprintf("ckpt=%dk", interval/1000)
			}
			setups = append(setups, setup)
		}
	}
	return setups
}

// CompartmentAblationSetups returns the compartmentalized-ordering
// ablation: sP-SMR on the index engine under the 50/50 read/update
// kvstore workload, sweeping the proxy-proposer tier (0/1/2/4 ingress
// proxies) crossed with learner fan-out off/on (2 delivery stripes per
// group). The p=0,fan=0 row is the direct-submission baseline; proxy
// rows additionally report the leader's frames-per-command compression
// and per-proxy batch fill in Result.Extra, which is where the
// ordering-layer claim (batching relieves the leader's ingress, relays
// relieve its egress) is measured rather than guessed.
func CompartmentAblationSetups(scale Scale, threads int) []KVSetup {
	var setups []KVSetup
	for _, fanout := range []int{0, 2} {
		for _, proxies := range []int{0, 1, 2, 4} {
			setup := scale.kvSetup(SPSMR, threads)
			setup.Gen = workload.KVReadUpdate
			setup.Scheduler = psmr.SchedIndex
			setup.Proxies = proxies
			setup.Fanout = fanout
			setups = append(setups, setup)
		}
	}
	return setups
}

// ObsAblationSetups returns the observability-overhead ablation:
// sP-SMR under the 50/50 read/update kvstore workload with
// pipeline-stage tracing off / sampled 1-in-1024 / on every command,
// crossed with the scan and index engines. The off column is the
// baseline the ≤3% sampled-overhead claim is gated against; the
// trace=all column bounds the worst case (it is expected to cost
// real throughput — that is why sampling exists).
func ObsAblationSetups(scale Scale, threads int) []KVSetup {
	var setups []KVSetup
	for _, kind := range []psmr.SchedulerKind{psmr.SchedScan, psmr.SchedIndex} {
		for _, trace := range []struct {
			sample int
			tag    string
		}{
			{sample: -1, tag: "trace=off"},
			{sample: 0, tag: "trace=1/1024"},
			{sample: 1, tag: "trace=all"},
		} {
			setup := scale.kvSetup(SPSMR, threads)
			setup.Gen = workload.KVReadUpdate
			setup.Scheduler = kind
			setup.TraceSample = trace.sample
			setup.EmbedObs = trace.sample >= 0
			setup.Tag = trace.tag
			setups = append(setups, setup)
		}
	}
	return setups
}

// ObsGateSetup returns one row of the sampled-overhead gate: the
// sP-SMR/index 50/50 read/update kv workload at the given trace
// sampling (-1 off, 0 the 1/1024 default) — the e2e configuration the
// make-verify ≤3% assertion measures.
func ObsGateSetup(scale Scale, threads, traceSample int) KVSetup {
	setup := scale.kvSetup(SPSMR, threads)
	setup.Gen = workload.KVReadUpdate
	setup.Scheduler = psmr.SchedIndex
	setup.TraceSample = traceSample
	return setup
}

// FlightGateSetup returns one side of the flight-recorder overhead
// gate: the same sP-SMR/index e2e workload as the obs gate with the
// black-box journal on (the default) or off (JournalEvents: -1).
// Tracing runs at the 1/1024 default on both sides so the journal-on
// row exercises the real emit path (stage events plus component
// events), isolating the journal's marginal cost.
func FlightGateSetup(scale Scale, threads int, journalOff bool) KVSetup {
	setup := scale.kvSetup(SPSMR, threads)
	setup.Gen = workload.KVReadUpdate
	setup.Scheduler = psmr.SchedIndex
	setup.JournalOff = journalOff
	return setup
}

// PrintTable1 prints the paper's Table I (delivery/execution
// parallelism matrix), the structural summary of the three SMR
// variants.
func PrintTable1(w io.Writer) {
	fmt.Fprintln(w, "Table I — degrees of parallelism in state-machine replication")
	fmt.Fprintf(w, "%-12s %-12s %-12s\n", "command...", "delivery", "execution")
	fmt.Fprintf(w, "%-12s %-12s %-12s\n", "SMR", "sequential", "sequential")
	fmt.Fprintf(w, "%-12s %-12s %-12s\n", "sP-SMR", "sequential", "parallel")
	fmt.Fprintf(w, "%-12s %-12s %-12s\n", "P-SMR", "parallel", "parallel")
	fmt.Fprintln(w, "SMR runs 1 delivery stream / 1 executor; sP-SMR 1 stream + scheduler")
	fmt.Fprintln(w, "+ worker pool; P-SMR k+1 streams merged pairwise into k executors.")
}

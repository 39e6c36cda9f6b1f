package psmr_test

// Benchmarks regenerating every table and figure of the paper's
// evaluation (§VII) at benchmark scale. Each Benchmark* family is one
// entry of the experiment table (experiment.Entries); cmd/psmr-bench
// runs the same entries at full scale.
//
// The benchmarks report Kcps (kilo-commands per second, the paper's
// unit), mean latency in ms, per-thread Kcps and server CPU% as custom
// metrics; b.N is decoupled from the measured interval (each iteration
// is one full timed run).

import (
	"encoding/binary"
	"fmt"
	"io"
	"testing"
	"time"

	"github.com/psmr/psmr/internal/bench"
	"github.com/psmr/psmr/internal/experiment"
	"github.com/psmr/psmr/internal/kvstore"
	"github.com/psmr/psmr/internal/mvstore"
	"github.com/psmr/psmr/internal/netfs"
	"github.com/psmr/psmr/internal/workload"
)

// benchScale keeps benchmark iterations short.
func benchScale() experiment.Scale {
	return experiment.QuickScale()
}

func reportResult(b *testing.B, res *bench.Result) {
	b.Helper()
	b.ReportMetric(res.Kcps(), "Kcps")
	if res.Latency != nil && res.Latency.Count() > 0 {
		b.ReportMetric(float64(res.Latency.Mean().Microseconds())/1000, "ms/op-mean")
	}
	// The paper's bottom panels (Figures 5 and 7): per-thread
	// normalised throughput.
	b.ReportMetric(res.Kcps()/float64(res.Threads), "Kcps/thread")
	b.ReportMetric(res.CPUPercent, "server-cpu%")
}

func runRowBench(b *testing.B, row experiment.Row) {
	b.Helper()
	var last *bench.Result
	for i := 0; i < b.N; i++ {
		res, err := row.Run()
		if err != nil {
			b.Fatalf("%s: %v", row.Label(), err)
		}
		last = res
	}
	reportResult(b, last)
}

// benchEntry runs every row of one experiment-table entry as a
// sub-benchmark (8 threads where the entry sweeps them).
func benchEntry(b *testing.B, name string) {
	e, ok := experiment.Lookup(name)
	if !ok {
		b.Fatalf("no experiment %q", name)
	}
	for _, row := range e.Rows(benchScale(), 8) {
		b.Run(row.Label(), func(b *testing.B) { runRowBench(b, row) })
	}
}

// BenchmarkTable1 prints the structural parallelism matrix (Table I).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiment.PrintTable1(io.Discard)
	}
}

// BenchmarkFig3 — performance of independent commands (read-only KV):
// SMR(1), no-rep(2), sP-SMR(2), P-SMR(8), BDB(6).
func BenchmarkFig3(b *testing.B) { benchEntry(b, "fig3") }

// BenchmarkFig4 — performance of dependent commands (insert/delete
// KV): every technique at 1 thread, BDB at 4.
func BenchmarkFig4(b *testing.B) { benchEntry(b, "fig4") }

// BenchmarkFig5 — scalability with the number of threads, independent
// and dependent workloads.
func BenchmarkFig5(b *testing.B) { benchEntry(b, "fig5") }

// BenchmarkFig6 — mixed workloads: P-SMR(8) vs SMR as the percentage
// of dependent commands grows (log-scale sweep; the paper's breakeven
// is ~10%).
func BenchmarkFig6(b *testing.B) { benchEntry(b, "fig6") }

// BenchmarkFig7 — skewed workloads (50% reads / 50% updates): P-SMR vs
// sP-SMR under uniform and Zipf(1) key selection across threads.
func BenchmarkFig7(b *testing.B) { benchEntry(b, "fig7") }

// BenchmarkFig8 — NetFS reads and writes: SMR, sP-SMR, P-SMR with 8
// path ranges, 1024-byte I/O, lz4-compressed payloads.
func BenchmarkFig8(b *testing.B) { benchEntry(b, "fig8") }

// --- Protocol-knob ablations (P-SMR, 4 workers, 50/50 read/update) ---

func ablationRow(threads int, mutate func(*experiment.KVSetup)) experiment.Row {
	setup := benchScale().Setup(experiment.PSMR, threads)
	setup.Gen = workload.KVReadUpdate
	mutate(&setup)
	return experiment.Row{KVSetup: setup}
}

// BenchmarkAblationMergeWeight varies the deterministic-merge weight
// (and matching skip slot rate): small weights stall busy streams
// behind idle ones, large weights add delivery burstiness.
func BenchmarkAblationMergeWeight(b *testing.B) {
	for _, weight := range []int{4, 16, 64, 256} {
		b.Run(fmt.Sprintf("w%d", weight), func(b *testing.B) {
			runRowBench(b, ablationRow(4, func(s *experiment.KVSetup) { s.MergeWeight = weight }))
		})
	}
}

// BenchmarkAblationBatchSize varies the consensus batch limit around
// the paper's 8 KB.
func BenchmarkAblationBatchSize(b *testing.B) {
	for _, size := range []int{1024, 8192, 65536} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			runRowBench(b, ablationRow(4, func(s *experiment.KVSetup) { s.BatchMaxBytes = size }))
		})
	}
}

// BenchmarkAblationCoarseCG compares the paper's two C-G variants
// (§IV-C): the keyed C-G (updates spread across groups) against the
// coarse one (every update synchronous).
func BenchmarkAblationCoarseCG(b *testing.B) {
	coarse := experiment.CoarseKVSpec()
	b.Run("keyed-cg", func(b *testing.B) {
		runRowBench(b, ablationRow(4, func(*experiment.KVSetup) {}))
	})
	b.Run("coarse-cg", func(b *testing.B) {
		runRowBench(b, ablationRow(4, func(s *experiment.KVSetup) { s.Spec = &coarse }))
	})
}

// BenchmarkAblationBarrierFanout measures synchronous-mode cost as the
// destination set grows: global commands with 1..8 workers.
func BenchmarkAblationBarrierFanout(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("%dworkers", workers), func(b *testing.B) {
			runRowBench(b, ablationRow(workers, func(s *experiment.KVSetup) { s.Gen = workload.KVInsertsDeletes }))
		})
	}
}

// BenchmarkAblationScheduler — the scan scheduler (the paper's sP-SMR
// bottleneck) against the index-based early scheduler, on sP-SMR and
// no-rep, update-heavy kvstore workload at 8 workers.
func BenchmarkAblationScheduler(b *testing.B) { benchEntry(b, "sched") }

// BenchmarkAblationMultiKey sweeps the barrier-vs-multikey C-G
// treatment of the two-key transfer across both scheduling engines.
func BenchmarkAblationMultiKey(b *testing.B) { benchEntry(b, "multikey") }

// BenchmarkAblationCheckpoint sweeps the coordinated-checkpoint
// interval across both scheduling engines: what crash-recoverability
// costs in throughput.
func BenchmarkAblationCheckpoint(b *testing.B) { benchEntry(b, "checkpoint") }

// --- Rollback depth (mvstore abort cost vs store size) ---

// rollbackDepthFS builds a netfs service preloaded with `files` closed
// files spread over 8 directories — the stand-in for "store size" in
// the abort-cost measurement.
func rollbackDepthFS(files int) *netfs.Service {
	const t0 = int64(1_700_000_000_000_000_000)
	svc := netfs.NewService()
	fs := svc.FS()
	for d := 0; d < 8; d++ {
		fs.Mkdir(fmt.Sprintf("/data%d", d), 0o755, t0)
	}
	for i := 0; i < files; i++ {
		fd, _ := fs.Create(fmt.Sprintf("/data%d/file%d", i%8, i), 0o644, t0)
		fs.Release(fd)
	}
	return svc
}

// rollbackCycle speculates one single-inode netfs mutation (a utimens,
// which versions exactly one file record regardless of store size) at
// a fresh epoch and aborts it, returning the time spent in Abort
// alone. One touched key at every store size is precisely the
// O(touched-keys) claim under test; a structural command like create
// would add a copy-on-write of the parent directory's entry table —
// real work, but speculation cost, not abort cost.
func rollbackCycle(tb testing.TB, svc *netfs.Service, e mvstore.Epoch, input []byte) time.Duration {
	tb.Helper()
	if out := svc.SpeculateAt(e, netfs.CmdUtimens, input); len(out) == 0 || out[0] != byte(netfs.OK) {
		tb.Fatalf("speculative utimens failed: %v", out)
	}
	start := time.Now()
	svc.Abort(e)
	return time.Since(start)
}

func rollbackUtimensInput() []byte {
	args := binary.LittleEndian.AppendUint64(nil, 1_700_000_000_000_000_001)
	args = binary.LittleEndian.AppendUint64(args, 1_700_000_000_000_000_001)
	return netfs.EncodeInput("/data0/file0", args)
}

// BenchmarkRollbackDepth measures what aborting a speculative netfs
// command costs as the store grows 1k → 100k files. Under the old
// undo-record/clone-replay model the clone made this O(state); under
// mvstore the abort drops only the epoch's own uncommitted versions
// (O(touched keys)), so ns/abort must stay flat across store sizes.
func BenchmarkRollbackDepth(b *testing.B) {
	input := rollbackUtimensInput()
	for _, files := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("%dfiles", files), func(b *testing.B) {
			svc := rollbackDepthFS(files)
			b.ResetTimer()
			var inAbort time.Duration
			for i := 0; i < b.N; i++ {
				inAbort += rollbackCycle(b, svc, mvstore.Epoch(i+1), input)
			}
			b.StopTimer()
			if got := svc.Uncommitted(); got != 0 {
				b.Fatalf("%d uncommitted versions survived the aborts", got)
			}
			b.ReportMetric(float64(inAbort.Nanoseconds())/float64(b.N), "ns/abort")
		})
	}
}

// TestRollbackDepthFlat is the acceptance criterion behind
// BenchmarkRollbackDepth: the netfs abort cost at a 100k-file store
// stays within 2x of the 1k-file store. Measured as best-of-rounds
// totals over many speculate/abort cycles so scheduler noise and GC
// pauses cannot fake a regression.
func TestRollbackDepthFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("timing measurement")
	}
	input := rollbackUtimensInput()
	cycles := 2000
	if raceEnabled {
		cycles = 500
	}
	measure := func(files int) time.Duration {
		svc := rollbackDepthFS(files)
		var epoch mvstore.Epoch
		best := time.Duration(1<<63 - 1)
		for round := 0; round < 5; round++ {
			var total time.Duration
			for i := 0; i < cycles; i++ {
				epoch++
				total += rollbackCycle(t, svc, epoch, input)
			}
			if total < best {
				best = total
			}
		}
		if got := svc.Uncommitted(); got != 0 {
			t.Fatalf("%d uncommitted versions survived the aborts", got)
		}
		return best
	}
	small := measure(1_000)
	large := measure(100_000)
	ratio := float64(large) / float64(small)
	t.Logf("abort cost: 1k files %v, 100k files %v (%.2fx)", small, large, ratio)
	if ratio > 2 {
		t.Fatalf("netfs abort cost grew %.2fx from 1k to 100k files (want <= 2x): O(touched-keys) abort regressed", ratio)
	}
}

// BenchmarkBTree benchmarks the storage engine in isolation (context
// for the absolute Kcps numbers of the system benchmarks).
func BenchmarkBTree(b *testing.B) {
	b.Run("get", func(b *testing.B) {
		st := kvstore.New()
		st.Preload(1_000_000)
		input := kvstore.EncodeKey(12345)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st.Execute(kvstore.CmdRead, input)
		}
	})
	b.Run("update", func(b *testing.B) {
		st := kvstore.New()
		st.Preload(1_000_000)
		input := kvstore.EncodeKeyValue(54321, []byte("12345678"))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st.Execute(kvstore.CmdUpdate, input)
		}
	})
	b.Run("insert-delete", func(b *testing.B) {
		st := kvstore.New()
		st.Preload(1_000_000)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			key := uint64(2_000_000 + i%100_000)
			st.Execute(kvstore.CmdInsert, kvstore.EncodeKeyValue(key, []byte("12345678")))
			st.Execute(kvstore.CmdDelete, kvstore.EncodeKey(key))
		}
	})
}

package psmr_test

// End-to-end determinism for the multi-key handoff: the index engine's
// deposit-and-continue protocol lets owners keep draining unrelated
// keyed work while a multi-key token is pending, yet it must claim the
// same per-key lock points in the same global order as the scan
// engine, which chains a multi-key command as a writer of every key it
// touches. Full replicated clusters running the handoff (with or
// without speculation riding on top) must therefore converge to the
// scan engine's byte-identical state fingerprint under the shared
// mixed workload of two-key transfers, snapshot reads, keyed updates
// and plain reads. The owner-level concurrency claim itself (owners
// drain while a token pends) is pinned by the internal/sched tests;
// this file is the whole-cluster acceptance bar. Runs under
// `make race`.

import (
	"testing"

	psmr "github.com/psmr/psmr"
)

// TestHandoffDeterminismVsScan compares every handoff variant against
// the scan engine's fingerprint (an independent implementation of the
// same conflict order): the handoff engine plain, and under
// speculation with and without forced optimistic/decided reordering,
// which drives the rollback path across pooled multi-key tokens. The
// scan-control row reruns the reference itself.
func TestHandoffDeterminismVsScan(t *testing.T) {
	want, _ := runOptimisticWorkload(t, psmr.SchedScan, false, 0)

	variants := []struct {
		name       string
		scheduler  psmr.SchedulerKind
		optimistic bool
		reorder    int
	}{
		{name: "index-handoff", scheduler: psmr.SchedIndex},
		{name: "scan-control", scheduler: psmr.SchedScan},
		{name: "index-handoff-optimistic", scheduler: psmr.SchedIndex, optimistic: true},
		{name: "index-handoff-optimistic-reorder", scheduler: psmr.SchedIndex, optimistic: true, reorder: 2},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			got, counters := runOptimisticWorkload(t, v.scheduler, v.optimistic, v.reorder)
			if got != want {
				t.Fatalf("%s fingerprint %x, want scan baseline %x", v.name, got, want)
			}
			if v.optimistic {
				t.Logf("%s: %v", v.name, counters)
			}
		})
	}
}

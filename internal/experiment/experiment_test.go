package experiment

import (
	"strings"
	"testing"
	"time"

	"github.com/psmr/psmr/internal/workload"
)

// tinyScale keeps smoke tests fast.
func tinyScale() Scale {
	return Scale{
		Keys:     2_000,
		Clients:  2,
		Window:   8,
		Duration: 250 * time.Millisecond,
		Warmup:   100 * time.Millisecond,
	}
}

func TestRunKVAllTechniques(t *testing.T) {
	for _, tech := range []Technique{PSMR, SPSMR, SMR, NoRep, BDB} {
		t.Run(tech.String(), func(t *testing.T) {
			setup := tinyScale().Setup(tech, 2)
			res, err := RunKV(setup)
			if err != nil {
				t.Fatalf("RunKV: %v", err)
			}
			if res.Ops <= 0 {
				t.Fatal("no operations measured")
			}
			if res.Latency.Count() != res.Ops {
				t.Fatalf("latency count %d != ops %d", res.Latency.Count(), res.Ops)
			}
			if res.Technique != tech.String() {
				t.Fatalf("technique = %q", res.Technique)
			}
		})
	}
}

func TestRunKVDependentWorkload(t *testing.T) {
	setup := tinyScale().Setup(PSMR, 2)
	setup.Gen = workload.KVInsertsDeletes
	res, err := RunKV(setup)
	if err != nil {
		t.Fatalf("RunKV: %v", err)
	}
	if res.Ops <= 0 {
		t.Fatal("no operations measured")
	}
}

func TestRunNetFSReadAndWrite(t *testing.T) {
	for _, write := range []bool{false, true} {
		setup := NetFSSetup{
			Technique: PSMR,
			Threads:   4,
			Files:     32,
			FileSize:  8 * 1024,
			Write:     write,
			IOSize:    1024,
			Clients:   2,
			Window:    8,
			Duration:  250 * time.Millisecond,
			Warmup:    100 * time.Millisecond,
		}
		res, err := RunNetFS(setup)
		if err != nil {
			t.Fatalf("RunNetFS(write=%v): %v", write, err)
		}
		if res.Ops <= 0 {
			t.Fatalf("no operations measured (write=%v)", write)
		}
	}
}

// TestRunKVCoarseSpec runs P-SMR under the paper's coarse C-G (§IV-C)
// with the merge-weight and batch-size knobs set, the configuration
// the coarse-C-G and protocol-knob benchmarks sweep.
func TestRunKVCoarseSpec(t *testing.T) {
	coarse := CoarseKVSpec()
	setup := tinyScale().Setup(PSMR, 2)
	setup.Gen = workload.KVReadUpdate
	setup.Spec = &coarse
	setup.MergeWeight = 8
	setup.BatchMaxBytes = 4096
	res, err := RunKV(setup)
	if err != nil {
		t.Fatalf("RunKV: %v", err)
	}
	if res.Ops <= 0 {
		t.Fatal("no operations measured")
	}
}

func TestUnknownTechniqueRejected(t *testing.T) {
	setup := tinyScale().Setup(Technique(99), 1)
	if _, err := RunKV(setup); err == nil {
		t.Fatal("unknown technique accepted")
	}
	nf := NetFSSetup{Technique: BDB}
	if _, err := RunNetFS(nf); err == nil {
		t.Fatal("netfs with BDB accepted")
	}
}

func TestPrintTable1(t *testing.T) {
	var sb strings.Builder
	PrintTable1(&sb)
	out := sb.String()
	for _, want := range []string{"SMR", "sP-SMR", "P-SMR", "sequential", "parallel"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table I missing %q:\n%s", want, out)
		}
	}
}

func TestRunKVWithCheckpoints(t *testing.T) {
	setup := tinyScale().Setup(SPSMR, 2)
	setup.Gen = workload.KVReadUpdate
	setup.CheckpointInterval = 200
	setup.Tag = "ckpt=200"
	res, err := RunKV(setup)
	if err != nil {
		t.Fatalf("RunKV: %v", err)
	}
	if res.Ops <= 0 {
		t.Fatal("no operations measured")
	}
	if res.Extra["checkpoint_snapshots_total"] < 1 {
		t.Fatalf("checkpoint count missing from the registry: %+v", res.Extra)
	}
	if res.Extra["checkpoint_snapshot_bytes"] <= 0 {
		t.Fatalf("snapshot size missing from the registry: %+v", res.Extra)
	}
	for _, c := range checkpointColumns {
		if _, ok := c.Value(res.Extra); !ok {
			t.Fatalf("checkpoint column %s not computable from the registry", c.Name)
		}
	}
}

// TestTableWellFormed checks the experiment table without starting a
// cluster: entry names are unique and cover every psmr-bench
// experiment, row labels are unique within an entry, every baseline
// names an earlier row of the same entry (the driver prints a row's
// ratio as soon as it is measured), "/index" labels only techniques
// that honour the Scheduler knob, and each gate is one off/on pair.
func TestTableWellFormed(t *testing.T) {
	names := map[string]bool{}
	for _, e := range Entries() {
		if names[e.Name] {
			t.Fatalf("duplicate entry %q", e.Name)
		}
		names[e.Name] = true
		rows := e.Rows(tinyScale(), 2)
		if e.Name != "table1" && len(rows) == 0 {
			t.Fatalf("%s: no rows", e.Name)
		}
		seen := map[string]bool{}
		for _, row := range rows {
			label := row.Label()
			if seen[label] {
				t.Fatalf("%s: duplicate row label %q", e.Name, label)
			}
			if row.Base != "" && !seen[row.Base] {
				t.Fatalf("%s: row %q compares against %q, not an earlier row", e.Name, label, row.Base)
			}
			seen[label] = true
			if strings.Contains(label, "/index") && row.Technique != SPSMR && row.Technique != NoRep {
				t.Fatalf("%s: %q runs %v, which ignores the scheduler knob", e.Name, label, row.Technique)
			}
		}
		if e.Gate && (len(rows) != 2 || rows[1].Base != rows[0].Label()) {
			t.Fatalf("%s: a gate is one off row and one on row compared against it", e.Name)
		}
	}
	for _, name := range []string{"table1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"sched", "admit", "multikey", "optimistic", "rollback", "checkpoint", "compartment", "obs",
		"obsgate", "flightgate"} {
		if !names[name] {
			t.Fatalf("experiment %q missing from the table", name)
		}
	}
}

// rowsOf builds the named entry's rows at the tiny scale.
func rowsOf(t *testing.T, name string) []Row {
	t.Helper()
	e, ok := Lookup(name)
	if !ok {
		t.Fatalf("experiment %q missing from the table", name)
	}
	return e.Rows(tinyScale(), 2)
}

// TestFigSetupsWellFormed checks the paper-figure entries keep the
// paper's axes: five techniques in Figures 3 and 4, four techniques x
// five thread counts x two workloads in Figure 5, and SMR vs P-SMR at
// five dependent-command percentages in Figure 6.
func TestFigSetupsWellFormed(t *testing.T) {
	if got := len(rowsOf(t, "fig3")); got != 5 {
		t.Fatalf("fig3 = %d rows", got)
	}
	if got := len(rowsOf(t, "fig4")); got != 5 {
		t.Fatalf("fig4 = %d rows", got)
	}
	if got := len(rowsOf(t, "fig5")); got != 40 {
		t.Fatalf("fig5 = %d rows", got)
	}
	fig6 := rowsOf(t, "fig6")
	if len(fig6) != 10 {
		t.Fatalf("fig6 = %d rows, want 10 (SMR and P-SMR at 5 percentages)", len(fig6))
	}
	for i, row := range fig6 {
		want := []Technique{SMR, PSMR}[i%2]
		if row.Technique != want {
			t.Fatalf("fig6 row %d runs %v, want %v", i, row.Technique, want)
		}
	}
}

// TestCheckpointAblationSetupsWellFormed checks the checkpoint entry:
// sP-SMR on two engines x four intervals, one "off" row per engine.
func TestCheckpointAblationSetupsWellFormed(t *testing.T) {
	rows := rowsOf(t, "checkpoint")
	if len(rows) != 8 {
		t.Fatalf("%d rows, want 8 (2 engines x 4 intervals)", len(rows))
	}
	seenOff := 0
	for _, r := range rows {
		if r.Technique != SPSMR {
			t.Fatalf("unexpected technique %v", r.Technique)
		}
		if r.CheckpointInterval == 0 {
			seenOff++
			if !strings.Contains(r.Tag, "off") {
				t.Fatalf("off row mis-tagged: %q", r.Tag)
			}
		}
	}
	if seenOff != 2 {
		t.Fatalf("%d off rows, want 2", seenOff)
	}
}

package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/psmr/psmr/internal/experiment"
)

// TestOverheadVerdict pins the overhead gates' decision on the median
// of per-pair on/off ratios: equal throughput passes for odd and even
// pair counts, a single outlier pair cannot fail the gate, and a
// uniform 5% slowdown fails it.
func TestOverheadVerdict(t *testing.T) {
	cases := []struct {
		name   string
		ratios []float64
		median float64
		pass   bool
	}{
		{"equal-odd", []float64{1, 1, 1, 1, 1}, 1, true},
		{"equal-even", []float64{1, 1, 1, 1, 1, 1}, 1, true},
		{"noisy-odd", []float64{1.08, 0.90, 1.00, 0.99, 1.03}, 1.00, true},
		{"noisy-even", []float64{1.08, 0.90, 0.98, 1.02}, 1.00, true},
		{"one-outlier", []float64{1, 1, 0.5, 1, 1, 1, 1}, 1, true},
		{"slowdown-odd", []float64{0.95, 0.95, 0.95, 0.95, 0.95}, 0.95, false},
		{"slowdown-even", []float64{0.95, 0.95, 0.95, 0.95}, 0.95, false},
		{"empty", nil, 0, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			median, pass := overheadVerdict(c.ratios)
			if pass != c.pass || median < c.median-1e-9 || median > c.median+1e-9 {
				t.Fatalf("overheadVerdict(%v) = %.3f, %v; want %.3f, %v", c.ratios, median, pass, c.median, c.pass)
			}
		})
	}
}

// TestRunEntrySmoke drives every table entry with rows through the
// real driver at a tiny scale: the entry's first row, plus its first
// compared row and that row's baseline. Each run must print the
// comparison and the entry's registry columns, and write
// BENCH_<name>.json in the {host, rows} schema with exactly those
// labels, in order.
func TestRunEntrySmoke(t *testing.T) {
	t.Chdir(t.TempDir())
	scale := experiment.Scale{
		Keys:     2_000,
		Clients:  2,
		Window:   8,
		Duration: 200 * time.Millisecond,
		Warmup:   50 * time.Millisecond,
	}
	for _, e := range experiment.Entries() {
		rows := e.Rows(scale, 2)
		if e.Gate || len(rows) == 0 {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			pick := map[string]bool{rows[0].Label(): true}
			for _, row := range rows {
				if row.Base != "" {
					pick[row.Label()], pick[row.Base] = true, true
					break
				}
			}
			var sel []experiment.Row
			var want []string
			for _, row := range rows {
				if pick[row.Label()] {
					sel = append(sel, row)
					want = append(want, row.Label())
				}
			}
			var out strings.Builder
			if err := runEntry(&out, e, sel); err != nil {
				t.Fatalf("runEntry: %v", err)
			}
			data, err := os.ReadFile("BENCH_" + e.Name + ".json")
			if err != nil {
				t.Fatal(err)
			}
			var file struct {
				Host *struct {
					Go     string `json:"go"`
					NumCPU int    `json:"numcpu"`
				} `json:"host"`
				Rows []struct {
					Technique string  `json:"technique"`
					Kcps      float64 `json:"kcps"`
				} `json:"rows"`
			}
			if err := json.Unmarshal(data, &file); err != nil {
				t.Fatalf("BENCH_%s.json: %v", e.Name, err)
			}
			if file.Host == nil || file.Host.Go == "" || file.Host.NumCPU < 1 {
				t.Fatalf("BENCH_%s.json: host stamp missing: %s", e.Name, data)
			}
			var got []string
			for _, row := range file.Rows {
				got = append(got, row.Technique)
				if row.Kcps <= 0 {
					t.Errorf("%s: row %q measured nothing", e.Name, row.Technique)
				}
			}
			if strings.Join(got, "|") != strings.Join(want, "|") {
				t.Fatalf("BENCH_%s.json rows %q, want %q", e.Name, got, want)
			}
			if len(e.Columns) > 0 && !strings.Contains(out.String(), "registry: ") {
				t.Fatalf("%s: no registry columns printed:\n%s", e.Name, out.String())
			}
			for _, row := range sel {
				if row.Base != "" && !strings.Contains(out.String(), "vs "+row.Base) {
					t.Fatalf("%s: no comparison of %q against %q:\n%s", e.Name, row.Label(), row.Base, out.String())
				}
			}
		})
	}
}

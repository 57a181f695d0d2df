package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"cbes/internal/stats"
)

func TestCSVExport(t *testing.T) {
	dir := t.TempDir()
	p1 := &Phase1Result{Errors: []float64{1.5, 2.5, 8.0}, Cases: 3}
	f5 := &Fig5Result{Cases: []Fig5Case{{Name: "lu.A.64", Nodes: 64, Runs: 5, MeanErr: 2.1}}}
	p3 := &Phase3Result{Rows: []Phase3Row{{Program: "lu", LoadPct: 10, Stale: true, MeanErr: 5}}}
	f6 := &Fig6Result{Zones: []Fig6Zone{{Name: "high", Times: []float64{200, 210}}}}
	t1 := &Table1Result{Rows: []Table1Row{{Case: "LU(1)", WorstTime: 220, BestTime: 208, SpeedupPct: 5.4}}}
	t2 := &Table2Result{Rows: []Table2Row{{Case: "LU(1)", Scheduler: "CS", Runs: 2, HitsPct: 90}}}
	f7 := &Fig7Result{
		CS:  stats.NewHistogram([]float64{1, 2}, 0, 3, 3),
		NCS: stats.NewHistogram([]float64{2, 3}, 0, 3, 3),
	}
	t3 := &Table3Result{Rows: []Table3Row{{Case: "aztec.8", SpeedupPct: 10.1}}}
	t4 := &Table4Result{Rows: []Table4Row{{Case: "aztec.8", Scheduler: "NCS", Runs: 4}}}
	hl := &HeadlineResult{GroveSpreadPct: 54}
	ft := &FaultTolResult{Steps: []FaultTolStep{{TimeSec: 40, Advice: "stay"}, {TimeSec: 80, Down: 1, Advice: "evacuate"}}}

	if err := ExportAll(dir, p1, f5, p3, f6, t1, t2, f7, t3, t4, hl, ft, nil); err != nil {
		t.Fatal(err)
	}
	wantRows := map[string]int{
		"phase1_errors.csv": 3,
		"fig5.csv":          1,
		"phase3.csv":        1,
		"fig6.csv":          2,
		"table1.csv":        1,
		"table2.csv":        1,
		"fig7.csv":          3,
		"table3.csv":        1,
		"table4.csv":        1,
		"headline.csv":      6,
		"faulttol.csv":      2,
	}
	for name, want := range wantRows {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := countCSVRows(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got != want {
			t.Fatalf("%s: %d rows, want %d", name, got, want)
		}
	}
}

func TestExportAllCreatesDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "out")
	if err := ExportAll(dir, &HeadlineResult{}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "headline.csv")); err != nil {
		t.Fatal(err)
	}
}

// TestExportIgnoresWallClock: results that differ only in wall-clock
// scheduler time export byte-identical CSVs.
func TestExportIgnoresWallClock(t *testing.T) {
	export := func(secs float64) map[string][]byte {
		dir := t.TempDir()
		t1 := &Table1Result{Rows: []Table1Row{{Case: "LU(1)", WorstTime: 220, BestTime: 208, SpeedupPct: 5.4, SchedulerSecs: secs}}}
		t3 := &Table3Result{Rows: []Table3Row{{Case: "aztec.8", SpeedupPct: 10.1, SchedulerSecs: secs}}}
		if err := ExportAll(dir, t1, t3); err != nil {
			t.Fatal(err)
		}
		files := map[string][]byte{}
		for _, name := range []string{"table1.csv", "table3.csv"} {
			b, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			files[name] = b
		}
		return files
	}
	a, b := export(0.25), export(7.5)
	for name := range a {
		if !bytes.Equal(a[name], b[name]) {
			t.Errorf("%s depends on SchedulerSecs:\n%s\nvs\n%s", name, a[name], b[name])
		}
	}
}

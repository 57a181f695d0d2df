// Command experiments regenerates the paper's tables and figures on the
// virtual testbeds.
//
// Usage:
//
//	experiments [-run all|phase1|fig5|phase3|fig6|table1|table2|fig7|table3|table4|headline|ablations|faulttol|overload]
//	            [-scale 0.25] [-seed 42] [-jobs 0] [-v] [-csv dir]
//
// -scale 1.0 runs the paper's repetition counts (slow), except phase 1,
// which runs 720 sweep cases against the paper's >16 000; the default runs
// a quarter-scale version whose shapes match. Independent trials fan out
// across all cores by default; -jobs limits the worker count (-jobs 1 is
// the serial reference order, which produces identical results).
//
// -run takes a comma-separated list; a name that is not an experiment (or
// all) is an error, so a typo never silently drops a table. overload is not
// part of the paper reproduction and only runs when named explicitly
// (never under -run all).
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"cbes/internal/accuracy"
	"cbes/internal/experiments"
)

func main() {
	run := flag.String("run", "all", "experiment to run (comma separated), or 'all'")
	scale := flag.Float64("scale", 0.25, "case-count scale in (0,1]; 1.0 = paper repetition counts (phase 1: 720 cases)")
	seed := flag.Int64("seed", 42, "experiment seed")
	jobs := flag.Int("jobs", 0, "max parallel trials (0 = all cores, 1 = serial)")
	verbose := flag.Bool("v", false, "progress output")
	csvDir := flag.String("csv", "", "also export results as CSV into this directory")
	flag.Parse()

	cfg := experiments.Config{Seed: *seed, Scale: *scale, Jobs: *jobs, Verbose: *verbose}
	want := map[string]bool{}
	for _, name := range strings.Split(*run, ",") {
		want[strings.TrimSpace(name)] = true
	}
	all := want["all"]
	// overload characterizes the service tier's admission control, not
	// the paper; it only runs when named explicitly, so -run all stays a
	// pure paper reproduction.
	selected := func(name string) bool { return want[name] || (all && name != "overload") }

	start := time.Now()
	var lab *experiments.Lab // calibrated once the -run list is known to be valid

	type exp struct {
		name string
		run  func() string
	}
	var t2 *experiments.Table2Result
	var csvs []experiments.CSVWriter
	keep := func(r experiments.CSVWriter) { csvs = append(csvs, r) }
	list := []exp{
		{"phase1", func() string {
			r := experiments.Phase1Sweep(lab, cfg)
			keep(r)
			return r.Render()
		}},
		{"fig5", func() string {
			r := experiments.Fig5(lab, cfg)
			keep(r)
			return r.Render()
		}},
		{"phase3", func() string {
			r := experiments.Phase3LoadSensitivity(lab, cfg)
			keep(r)
			return r.Render()
		}},
		{"fig6", func() string {
			r := experiments.Fig6LUZones(lab, cfg)
			keep(r)
			return r.Render()
		}},
		{"table1", func() string {
			r := experiments.Table1(lab, cfg)
			keep(r)
			return r.Render()
		}},
		{"table2", func() string {
			t2 = experiments.Table2(lab, cfg)
			keep(t2)
			return t2.Render()
		}},
		{"fig7", func() string {
			if t2 == nil {
				t2 = experiments.Table2(lab, cfg)
			}
			r := experiments.Fig7(t2)
			keep(r)
			return r.Render()
		}},
		{"table3", func() string {
			r := experiments.Table3(lab, cfg)
			keep(r)
			return r.Render()
		}},
		{"table4", func() string {
			r := experiments.Table4(lab, cfg)
			keep(r)
			return r.Render()
		}},
		{"headline", func() string {
			r := experiments.Headline(lab, cfg)
			keep(r)
			return r.Render()
		}},
		{"ablations", func() string { return experiments.Ablations(lab, cfg).Render() }},
		{"faulttol", func() string {
			r := experiments.FaultTolerance(lab, cfg)
			keep(r)
			return r.Render()
		}},
		{"overload", func() string {
			r, err := experiments.Overload(cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "overload: %v\n", err)
				os.Exit(1)
			}
			keep(r)
			return r.Render()
		}},
	}

	names := make([]string, len(list))
	for i, e := range list {
		names[i] = e.name
	}
	if bad := unknownExperiments(*run, names); len(bad) > 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment(s) %s (want all or %s)\n",
			strings.Join(bad, ","), strings.Join(names, "|"))
		os.Exit(2)
	}
	lab = experiments.NewLab(cfg)

	ran := 0
	for _, e := range list {
		if !selected(e.name) {
			continue
		}
		t0 := time.Now()
		out := e.run()
		fmt.Println(out)
		fmt.Printf("  [%s took %.1fs]\n\n", e.name, time.Since(t0).Seconds())
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiment matched %q\n", *run)
		os.Exit(2)
	}
	if *csvDir != "" && len(csvs) > 0 {
		if err := experiments.ExportAll(*csvDir, csvs...); err != nil {
			fmt.Fprintf(os.Stderr, "csv export: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("CSV results exported to %s\n", *csvDir)
	}
	printAccuracySummary()
	fmt.Printf("total: %d experiment(s) in %.1fs (scale %.2f, seed %d)\n",
		ran, time.Since(start).Seconds(), *scale, *seed)
}

// unknownExperiments returns the names in the comma-separated run list that
// are neither "all" nor one of known, in the order written. Empty entries
// name nothing and are skipped.
func unknownExperiments(run string, known []string) []string {
	var bad []string
	for _, name := range strings.Split(run, ",") {
		name = strings.TrimSpace(name)
		if name != "" && name != "all" && !slices.Contains(known, name) {
			bad = append(bad, name)
		}
	}
	return bad
}

// printAccuracySummary reports the predicted-vs-actual ledger the experiment
// hooks fed while running (fig5, table2, table4 — see internal/accuracy).
func printAccuracySummary() {
	led := accuracy.Default()
	st := led.Status()
	if st.Joined == 0 {
		return
	}
	cal := "OK"
	if !st.CalibrationOK {
		cal = "DRIFT"
	}
	fmt.Printf("accuracy ledger: %d predicted-vs-actual pairs  bias %+.1f%%  MAPE %.1f%%  calibration %s\n",
		st.Joined, st.BiasPct, st.MAPEPct, cal)
	for _, b := range led.Stats(accuracy.StatsQuery{}) {
		fmt.Printf("  %-28s %-12s n=%-4d bias %+6.1f%%  mape %5.1f%%  p90 %5.1f%%\n",
			b.Key.App, b.Key.Scheduler, b.Count, b.BiasPct, b.MAPEPct, b.P90Pct)
	}
	fmt.Println()
}

package experiments

import (
	"fmt"
	"strings"

	"cbes/internal/cluster"
	"cbes/internal/core"
	"cbes/internal/workloads"
)

// otherCases returns the §6.2 program selection (HPL sizes and the ASCI
// Purple benchmarks), all at 8 ranks.
func otherCases() []workloads.Program {
	return []workloads.Program{
		workloads.HPL(500, 8),
		workloads.HPL(5000, 8),
		workloads.HPL(10000, 8),
		workloads.Sweep3D(8),
		workloads.SMG2000(12, 8),
		workloads.SMG2000(50, 8),
		workloads.SMG2000(60, 8),
		workloads.SAMRAI(8),
		workloads.Towhee(8),
		workloads.Aztec(8),
	}
}

// table4Programs are the cases the paper carries into the average-case
// study (the "uncertain speedup" programs are excluded, §6.2).
func table4Programs() map[string]bool {
	return map[string]bool{
		"hpl.5000.8":   true,
		"hpl.10000.8":  true,
		"smg2000.12.8": true,
		"smg2000.50.8": true,
		"smg2000.60.8": true,
		"aztec.8":      true,
	}
}

// uncertainThresholdPct is the speedup below which a case is labeled
// "uncertain" (benefits cancelled by penalties or run too short).
const uncertainThresholdPct = 2.5

// Table3Result reproduces table 3: worst-vs-best scheduling for the other
// programs, on a homogeneous node subset so the effect is communication
// only. The paper finds 5.6–10.8 % maximum speedups, with sweep3d, SAMRAI,
// Towhee, and HPL(500) exhibiting only questionable potential.
type Table3Result struct {
	Rows []WorstBestRow
}

// otherCase profiles prog on the first 8 Intel nodes and returns its
// evaluator and its zone: the homogeneous Intel subset, 12 dual-PII nodes
// split across the two federation halves — the "level field" on which only
// communication placement distinguishes mappings.
func (l *Lab) otherCase(prog workloads.Program) (*core.Evaluator, zoneSpec) {
	pool := l.GroveTopo.NodesByArch(cluster.ArchIntel)
	return l.Evaluator(l.GroveTopo, prog, pool[:prog.Ranks]), zoneSpec{Name: prog.Name, Pool: pool}
}

// Table3 runs the worst-vs-best study for the other programs.
func Table3(l *Lab, cfg Config) *Table3Result {
	runs := cfg.scaled(5, 3)
	res := &Table3Result{}
	for pi, prog := range otherCases() {
		eval, z := l.otherCase(prog)
		s := cfg.Seed + int64(pi)
		row := l.worstBest(cfg, eval, prog, z, runs,
			worstBestSeeds{s, s + 40, cfg.Seed + int64(500*pi), cfg.Seed + int64(500*pi) + 7777})
		// A case is "uncertain" when the gap is within noise or the run is
		// too short — §6.2's HPL(1) reasoning: "the short execution
		// duration exaggerates the differences".
		row.Uncertain = row.SpeedupPct < uncertainThresholdPct || row.BestTime < 10
		row.CommFraction = l.Profile(l.GroveTopo, prog, z.Pool[:prog.Ranks]).CommFraction()
		res.Rows = append(res.Rows, row)
		cfg.logf("table3: %s speedup %.1f%%", prog.Name, row.SpeedupPct)
	}
	return res
}

// Render formats table 3.
func (r *Table3Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Table 3 — other tests: worst vs best case (homogeneous Intel subset)\n")
	sb.WriteString("  case            worst(s)  ±CI     best(s)  ±CI     speedup  comm%%   sched(s)  comment\n")
	for _, row := range r.Rows {
		comment := ""
		if row.Uncertain {
			comment = "uncertain speedup"
		}
		fmt.Fprintf(&sb, "  %-14s %8.1f %5.1f  %8.1f %5.1f   %6.1f%%  %5.1f%%  %7.2f   %s\n",
			row.Case, row.WorstTime, row.WorstCI, row.BestTime, row.BestCI,
			row.SpeedupPct, row.CommFraction*100, row.SchedulerSecs, comment)
	}
	sb.WriteString("  (paper: max speedups 5.6-10.8%; sweep3d/SAMRAI/Towhee/HPL(500) uncertain)\n")
	return sb.String()
}

// Table4Result reproduces table 4: the average case for the programs with
// real speedup potential. The paper finds average speedups within ≈10 % of
// the maxima of table 3. The speedups are per program, in otherCases order.
type Table4Result struct{ AverageCase }

// Table4 runs the average-case study for the retained programs.
func Table4(l *Lab, cfg Config) *Table4Result {
	keep := table4Programs()
	res := &Table4Result{}
	for pi, prog := range otherCases() {
		if !keep[prog.Name] {
			continue
		}
		eval, z := l.otherCase(prog)
		l.averageCase(cfg, &res.AverageCase, "table4", eval, prog, z,
			averageCaseSeeds{cfg.Seed + 99, cfg.Seed + int64(400*pi), cfg.Seed + int64(600*pi)})
	}
	return res
}

// Render formats table 4.
func (r *Table4Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Table 4 — other tests: average case scenario (CS then NCS per program)\n")
	sb.WriteString("  case            sched  runs  avg pred  ±CI    hits   measured  ±CI\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  %-14s %-5s %5d  %8.1f %5.1f  %4.0f%%  %8.1f %5.1f\n",
			row.Case, row.Scheduler, row.Runs, row.AvgPredicted, row.PredCI,
			row.HitsPct, row.AvgMeasured, row.MeasCI)
	}
	for i, e := range r.ExpectedSpeedup {
		fmt.Fprintf(&sb, "  %-14s expected speedup %.1f%%, measured %.1f%%\n",
			r.Rows[2*i].Case, e, r.MeasuredSpeedup[i])
	}
	sb.WriteString("  (paper: average speedups 5.2-10.3%, within ~10% of the maxima)\n")
	return sb.String()
}

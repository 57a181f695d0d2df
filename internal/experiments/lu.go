package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"cbes/internal/accuracy"
	"cbes/internal/cluster"
	"cbes/internal/core"
	"cbes/internal/monitor"
	"cbes/internal/parfor"
	"cbes/internal/schedule"
	"cbes/internal/stats"
	"cbes/internal/vcluster"
	"cbes/internal/workloads"
)

// zoneSpec is the node pool one scheduling case searches: one of the three
// §6.1 node groups, or §6.2's homogeneous Intel subset.
type zoneSpec struct {
	Name string
	Pool []int
	// Requires is the architecture that must appear in a sampled mapping
	// for it to represent this zone ("" = no constraint).
	Requires cluster.Arch
	// Comment is the zone's table-1 comment.
	Comment string
}

// luZones builds the three zones: high (Alpha only), medium (Alpha+Intel,
// Intel present), low (all architectures, SPARC present).
func (l *Lab) luZones() []zoneSpec {
	high, med, low := l.groveGroups()
	return []zoneSpec{
		{Name: "LU(1) high-speed (A)", Pool: high, Comment: "High-speed group"},
		{Name: "LU(2) medium-speed (A+I)", Pool: med, Requires: cluster.ArchIntel, Comment: "Medium-speed group"},
		{Name: "LU(3) low-speed (A+I+S)", Pool: low, Requires: cluster.ArchSPARC, Comment: "Low-speed group"},
	}
}

// sampleZoneMapping draws a random mapping that represents the zone.
func (l *Lab) sampleZoneMapping(z zoneSpec, ranks int, rng *rand.Rand) []int {
	for {
		m := pickMapping(z.Pool, ranks, rng)
		if z.Requires == "" {
			return m
		}
		for _, n := range m {
			if l.GroveTopo.Node(n).Arch == z.Requires {
				return m
			}
		}
	}
}

// zoneRequest builds a scheduling request over the zone pool, constrained
// to zone-representative mappings (the defining architecture must appear).
func (l *Lab) zoneRequest(e *core.Evaluator, z zoneSpec, seed int64, effort int, maximize bool) *schedule.Request {
	var constraint func(core.Mapping) bool
	if z.Requires != "" {
		req := z.Requires
		topo := l.GroveTopo
		constraint = func(m core.Mapping) bool {
			for _, n := range m {
				if topo.Node(n).Arch == req {
					return true
				}
			}
			return false
		}
	}
	return &schedule.Request{
		Eval:       e,
		Snap:       monitor.IdleSnapshot(l.GroveTopo.NumNodes()),
		Pool:       z.Pool,
		Seed:       seed,
		Effort:     effort,
		Maximize:   maximize,
		Constraint: constraint,
	}
}

// WorstBestRow is one case of a worst-vs-best study (tables 1 and 3).
type WorstBestRow struct {
	Case          string
	WorstTime     float64
	WorstCI       float64
	BestTime      float64
	BestCI        float64
	SpeedupPct    float64
	SchedulerSecs float64
	Comment       string  // table 1
	Uncertain     bool    // table 3
	CommFraction  float64 // table 3
}

// worstBestSeeds seed one worst-vs-best case: the minimizing and the
// maximizing anneal, and the first measurement run of each mapping (run r
// adds r).
type worstBestSeeds struct{ best, worst, bestRuns, worstRuns int64 }

// worstBest is the worst-vs-best study of one zone: a minimizing and a
// maximizing anneal at effort 6000, then runs paired OS-noise measurements
// of the two mappings. The anneals and the runs are independent (distinct
// seeds), so each pair fans out.
func (l *Lab) worstBest(cfg Config, eval *core.Evaluator, prog workloads.Program, z zoneSpec, runs int, s worstBestSeeds) WorstBestRow {
	var decs [2]*schedule.Decision
	var errs [2]error
	seeds := [2]int64{s.best, s.worst}
	parfor.Do(cfg.jobs(), 2, func(i int) {
		decs[i], errs[i] = schedule.SimulatedAnnealing(l.zoneRequest(eval, z, seeds[i], 6000, i == 1))
	})
	for _, err := range errs {
		if err != nil {
			panic(err)
		}
	}
	times := [2][]float64{make([]float64, runs), make([]float64, runs)}
	bases := [2]int64{s.bestRuns, s.worstRuns}
	parfor.Do(cfg.jobs(), 2*runs, func(i int) {
		r, w := i/2, i%2
		times[w][r] = l.Measure(l.GroveTopo, prog, decs[w].Mapping, vcluster.Background{Noise: true, Seed: bases[w] + int64(r)})
	})
	row := WorstBestRow{
		Case:          z.Name,
		SchedulerSecs: decs[0].SchedulerTime.Seconds() + decs[1].SchedulerTime.Seconds(),
		Comment:       z.Comment,
	}
	row.BestTime, row.BestCI = stats.MeanCI(times[0])
	row.WorstTime, row.WorstCI = stats.MeanCI(times[1])
	row.SpeedupPct = (row.WorstTime - row.BestTime) / row.WorstTime * 100
	return row
}

// AverageCaseRow is one scheduler's row for one case of an average-case
// study (tables 2 and 4).
type AverageCaseRow struct {
	Case         string
	Scheduler    string // "CS" or "NCS"
	Runs         int
	AvgPredicted float64
	PredCI       float64
	HitsPct      float64
	AvgMeasured  float64
	MeasCI       float64
	Predictions  []float64 // per-run full-evaluation predictions (fig. 7)
}

// AverageCase is an average-case study: per case a CS row then an NCS
// row, and NCS-vs-CS speedups in case order.
type AverageCase struct {
	Rows            []AverageCaseRow
	ExpectedSpeedup []float64
	MeasuredSpeedup []float64
}

// averageCaseSeeds seed one average-case case: the reference anneal, and
// the first scheduler run and the first measurement (run k adds k).
type averageCaseSeeds struct{ ref, runs, meas int64 }

// averageCase adds one case of an average-case study to r. A high-effort
// anneal gives the best predicted time; 100 CS and 100 NCS decisions (at
// full scale) at effort 6000 are each measured under OS noise, and a decision hits when it
// predicts within 0.5 % of the best. Every (scheduler, run) trial derives
// its seeds from its indices, so the block fans out and the rows are
// assembled serially after. Each pair joins the accuracy ledger as
// "<table>/<CS|NCS>".
func (l *Lab) averageCase(cfg Config, r *AverageCase, table string, eval *core.Evaluator, prog workloads.Program, z zoneSpec, s averageCaseSeeds) {
	runs := cfg.scaled(100, 10)
	ref, err := schedule.SimulatedAnnealing(l.zoneRequest(eval, z, s.ref, 24000, false))
	if err != nil {
		panic(err)
	}
	preds := [2][]float64{make([]float64, runs), make([]float64, runs)}
	meas := [2][]float64{make([]float64, runs), make([]float64, runs)}
	parfor.Do(cfg.jobs(), 2*runs, func(i int) {
		si, k := i/runs, i%runs
		search := schedule.SimulatedAnnealing
		if si == 1 {
			search = schedule.SimulatedAnnealingNoComm
		}
		dec, err := search(l.zoneRequest(eval, z, s.runs+int64(k), 6000, false))
		if err != nil {
			panic(err)
		}
		preds[si][k] = dec.Predicted
		meas[si][k] = l.Measure(l.GroveTopo, prog, dec.Mapping, vcluster.Background{Noise: true, Seed: s.meas + int64(k)})
	})
	for si, sched := range []string{"CS", "NCS"} {
		hits := 0
		for k := 0; k < runs; k++ {
			if preds[si][k] <= ref.Predicted*1.005 {
				hits++
			}
			accuracy.Default().ReportPair(accuracy.Prediction{
				App:       prog.Name,
				Scheduler: table + "/" + sched,
				AgeBucket: accuracy.AgeBucket(0),
				Predicted: preds[si][k],
			}, meas[si][k])
		}
		row := AverageCaseRow{Case: z.Name, Scheduler: sched, Runs: runs, Predictions: preds[si]}
		row.AvgPredicted, row.PredCI = stats.MeanCI(preds[si])
		row.HitsPct = float64(hits) / float64(runs) * 100
		row.AvgMeasured, row.MeasCI = stats.MeanCI(meas[si])
		r.Rows = append(r.Rows, row)
		cfg.logf("%s: %s %s hits %.0f%%", table, z.Name, sched, row.HitsPct)
	}
	cs, ncs := r.Rows[len(r.Rows)-2], r.Rows[len(r.Rows)-1]
	r.ExpectedSpeedup = append(r.ExpectedSpeedup, (ncs.AvgPredicted-cs.AvgPredicted)/ncs.AvgPredicted*100)
	r.MeasuredSpeedup = append(r.MeasuredSpeedup, (ncs.AvgMeasured-cs.AvgMeasured)/ncs.AvgMeasured*100)
}

// Fig6Zone is one execution-time zone of figure 6.
type Fig6Zone struct {
	Name     string
	Mappings int
	Times    []float64
	Min, Max float64
	Mean     float64
}

// Fig6Result reproduces figure 6: measured LU execution-time ranges on 8
// Orange Grove nodes for the high/medium/low speed groups — three distinct
// zones whose offsets come from node compute speeds and whose widths come
// from communication.
type Fig6Result struct {
	Zones []Fig6Zone
}

// Fig6LUZones samples representative mappings per zone and measures them.
func Fig6LUZones(l *Lab, cfg Config) *Fig6Result {
	rng := rand.New(rand.NewSource(cfg.Seed + 6))
	prog := luProgram()
	perZone := cfg.scaled(33, 8)
	res := &Fig6Result{}
	type fig6Trial struct {
		m    []int
		seed int64
	}
	for _, z := range l.luZones() {
		zone := Fig6Zone{Name: z.Name, Mappings: perZone, Times: make([]float64, perZone)}
		// Draw every trial's mapping and jitter seed serially, in the exact
		// order the serial loop consumed the rng, then fan the measurements
		// out: results land by index, so output is identical for any -jobs.
		trials := make([]fig6Trial, perZone)
		for k := range trials {
			trials[k].m = l.sampleZoneMapping(z, prog.Ranks, rng)
			trials[k].seed = rng.Int63()
		}
		parfor.Do(cfg.jobs(), perZone, func(k int) {
			zone.Times[k] = l.Measure(l.GroveTopo, prog, trials[k].m, vcluster.Background{Noise: true, Seed: trials[k].seed})
		})
		zone.Min = stats.Min(zone.Times)
		zone.Max = stats.Max(zone.Times)
		zone.Mean = stats.Mean(zone.Times)
		res.Zones = append(res.Zones, zone)
		cfg.logf("fig6: %s done [%0.1f, %0.1f]s", z.Name, zone.Min, zone.Max)
	}
	return res
}

// Render draws the zones as text ranges.
func (r *Fig6Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 6 — LU on 8 Orange Grove nodes: measured execution-time zones\n")
	for _, z := range r.Zones {
		fmt.Fprintf(&sb, "  %-26s [%6.1f .. %6.1f]s  mean %6.1f  (%d mappings)\n",
			z.Name, z.Min, z.Max, z.Mean, z.Mappings)
	}
	sb.WriteString("  (paper: three distinct zones ≈207-220 / ≈235-262 / ≈300-330 s)\n")
	return sb.String()
}

// Table1Result reproduces table 1: the maximum feasible speedup within each
// node group, from the measured times of the CS-found best mapping vs. the
// worst mapping of the group.
type Table1Result struct {
	Rows []WorstBestRow
	// MaxVsRandomPct is the §6.1.1 companion number: best overall vs.
	// worst overall mapping — the 36.6 % potential speedup against a
	// random scheduler that may pick any mapping.
	MaxVsRandomPct float64
}

// Table1 finds and measures best/worst mappings per zone.
func Table1(l *Lab, cfg Config) *Table1Result {
	prog := luProgram()
	high, _, _ := l.groveGroups()
	eval := l.Evaluator(l.GroveTopo, prog, high)
	runs := cfg.scaled(5, 3)
	res := &Table1Result{}
	for zi, z := range l.luZones() {
		s := cfg.Seed + int64(zi)
		row := l.worstBest(cfg, eval, prog, z, runs,
			worstBestSeeds{s, s + 50, cfg.Seed + int64(100*zi), cfg.Seed + int64(100*zi) + 9999})
		res.Rows = append(res.Rows, row)
		cfg.logf("table1: %s best %.1f worst %.1f", z.Name, row.BestTime, row.WorstTime)
	}
	// Best overall (high zone) vs worst overall (low zone).
	best, worst := res.Rows[0].BestTime, res.Rows[len(res.Rows)-1].WorstTime
	if worst > 0 {
		res.MaxVsRandomPct = (worst - best) / worst * 100
	}
	return res
}

// Render formats table 1.
func (r *Table1Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Table 1 — LU: worst vs best case scenario (Orange Grove)\n")
	sb.WriteString("  case                        worst(s)  ±CI     best(s)  ±CI     speedup  sched(s)  comment\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  %-26s %8.1f %5.1f   %8.1f %5.1f   %6.1f%%  %7.2f   %s\n",
			row.Case, row.WorstTime, row.WorstCI, row.BestTime, row.BestCI,
			row.SpeedupPct, row.SchedulerSecs, row.Comment)
	}
	fmt.Fprintf(&sb, "  max speedup vs random scheduler (best overall vs worst overall): %.1f%%  (paper: 36.6%%)\n",
		r.MaxVsRandomPct)
	sb.WriteString("  (paper speedups: 5.3% / 9.3% / 6.0%; scheduler ≈6 s)\n")
	return sb.String()
}

// Table2Result reproduces table 2: average-case scheduling. CS hits the
// minimum-time mappings ≈90 % of the time; NCS, blind to communication,
// almost never does. The speedups are per zone.
type Table2Result struct{ AverageCase }

// Table2 runs the average-case scheduling study.
func Table2(l *Lab, cfg Config) *Table2Result {
	prog := luProgram()
	high, _, _ := l.groveGroups()
	eval := l.Evaluator(l.GroveTopo, prog, high)
	res := &Table2Result{}
	for zi, z := range l.luZones() {
		l.averageCase(cfg, &res.AverageCase, "table2", eval, prog, z,
			averageCaseSeeds{cfg.Seed + 77, cfg.Seed + int64(200*zi), cfg.Seed + int64(300*zi)})
	}
	return res
}

// Render formats table 2.
func (r *Table2Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Table 2 — LU: average case scenario (per zone: CS then NCS)\n")
	sb.WriteString("  case                        sched  runs  avg pred  ±CI    hits   measured  ±CI\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "  %-26s %-5s %5d  %8.1f %5.1f  %4.0f%%  %8.1f %5.1f\n",
			row.Case, row.Scheduler, row.Runs, row.AvgPredicted, row.PredCI,
			row.HitsPct, row.AvgMeasured, row.MeasCI)
	}
	for i := range r.ExpectedSpeedup {
		fmt.Fprintf(&sb, "  zone %d: expected speedup %.1f%%, measured speedup %.1f%%\n",
			i+1, r.ExpectedSpeedup[i], r.MeasuredSpeedup[i])
	}
	sb.WriteString("  (paper: CS ≈90% hits, NCS <3%; measured speedups 4.8/8.7/5.5%)\n")
	return sb.String()
}

// Fig7Result reproduces figure 7: the distributions of predicted times of
// the CS and NCS selections for the LU(3) case. CS results skew to the
// minimum-time mappings, NCS to the near-worst.
type Fig7Result struct {
	CS  *stats.Histogram
	NCS *stats.Histogram
	Lo  float64
	Hi  float64
}

// Fig7 derives the distributions from table-2 data for the low-speed zone.
func Fig7(t2 *Table2Result) *Fig7Result {
	var cs, ncs []float64
	for _, row := range t2.Rows {
		if !strings.Contains(row.Case, "LU(3)") {
			continue
		}
		if row.Scheduler == "CS" {
			cs = row.Predictions
		} else {
			ncs = row.Predictions
		}
	}
	all := append(append([]float64{}, cs...), ncs...)
	lo, hi := stats.Min(all), stats.Max(all)
	span := hi - lo
	if span <= 0 {
		span = 1
	}
	lo -= span * 0.05
	hi += span * 0.05
	return &Fig7Result{
		CS:  stats.NewHistogram(cs, lo, hi, 12),
		NCS: stats.NewHistogram(ncs, lo, hi, 12),
		Lo:  lo,
		Hi:  hi,
	}
}

// Render draws both histograms.
func (r *Fig7Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 7 — predicted-time distributions, LU(3) case\n")
	sb.WriteString("  CS (skewed toward minimum-time mappings):\n")
	sb.WriteString(indent(r.CS.Render(40), "  "))
	sb.WriteString("  NCS (skewed toward near-worst mappings):\n")
	sb.WriteString(indent(r.NCS.Render(40), "  "))
	return sb.String()
}

func indent(s, pre string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = pre + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}

package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"cbes/internal/monitor"
	"cbes/internal/parfor"
	"cbes/internal/schedule"
	"cbes/internal/stats"
	"cbes/internal/vcluster"
)

// HeadlineResult reproduces the §1/§6 headline numbers:
//
//   - the internode-latency spread of each cluster (paper: ≈13 % Centurion,
//     ≈54 % Orange Grove);
//   - the maximum speedup of CS over a random scheduler for LU
//     (paper: 36.6 %) and the average-case gain over the mapping
//     population (paper: best ≈30 % below the population mean);
//   - the fraction of the theoretically available communication speedup
//     CBES captures (paper: up to ≈85 %).
type HeadlineResult struct {
	GroveSpreadPct     float64
	CenturionSpreadPct float64
	BestVsRandomMaxPct float64 // best mapping vs worst random selection
	BestVsRandomAvgPct float64 // best mapping vs random-selection average
	PopulationMean     float64
	BestTime           float64
	CommSpeedupPct     float64 // communication-time decrease, medium zone
	EfficiencyPct      float64 // achieved / theoretically available
}

// Headline computes the summary numbers.
func Headline(l *Lab, cfg Config) *HeadlineResult {
	res := &HeadlineResult{}
	// Small-message latency spread: the "internode latency differences" of
	// §6.
	res.GroveSpreadPct = l.GroveNet.Spread(64) * 100
	_, centNet := l.Centurion()
	res.CenturionSpreadPct = centNet.Spread(64) * 100

	// LU over the full Orange Grove: CS best vs random-scheduler samples.
	prog := luProgram()
	high, _, low := l.groveGroups()
	eval := l.Evaluator(l.GroveTopo, prog, high)
	snap := monitor.IdleSnapshot(l.GroveTopo.NumNodes())
	best, err := schedule.SimulatedAnnealing(&schedule.Request{
		Eval: eval, Snap: snap, Pool: low, Seed: cfg.Seed, Effort: 8000,
	})
	if err != nil {
		panic(err)
	}
	bestTime := l.Measure(l.GroveTopo, prog, best.Mapping, vcluster.Background{Noise: true, Seed: cfg.Seed})

	rng := rand.New(rand.NewSource(cfg.Seed + 31))
	samples := cfg.scaled(40, 10)
	// Pre-draw each sample's two seeds in the serial rng order, then fan the
	// schedule+measure pairs out.
	type seedPair struct{ sched, jitter int64 }
	seeds := make([]seedPair, samples)
	for i := range seeds {
		seeds[i].sched = rng.Int63()
		seeds[i].jitter = rng.Int63()
	}
	times := make([]float64, samples)
	parfor.Do(cfg.jobs(), samples, func(i int) {
		dec, err := schedule.Random(&schedule.Request{
			Eval: eval, Snap: snap, Pool: low, Seed: seeds[i].sched,
		})
		if err != nil {
			panic(err)
		}
		times[i] = l.Measure(l.GroveTopo, prog, dec.Mapping, vcluster.Background{Noise: true, Seed: seeds[i].jitter})
	})
	res.PopulationMean = stats.Mean(times)
	res.BestTime = bestTime
	worst := stats.Max(times)
	res.BestVsRandomMaxPct = (worst - bestTime) / worst * 100
	res.BestVsRandomAvgPct = (res.PopulationMean - bestTime) / res.PopulationMean * 100

	// Communication-time decrease in the medium zone (the paper's LU(2)
	// analysis): best vs worst mapping at equal computation, so the entire
	// difference is communication.
	lu2 := l.worstBest(cfg, eval, prog, l.luZones()[1], 1,
		worstBestSeeds{cfg.Seed + 3, cfg.Seed + 4, cfg.Seed + 5, cfg.Seed + 6})
	bt, wt := lu2.BestTime, lu2.WorstTime
	prof := l.Profile(l.GroveTopo, prog, high)
	commFrac := prof.CommFraction()
	if commFrac > 0 && wt > bt {
		res.CommSpeedupPct = (wt - bt) / (commFrac * wt) * 100
		if res.CommSpeedupPct > 100 {
			res.CommSpeedupPct = 100
		}
		available := res.GroveSpreadPct
		if available > 0 {
			res.EfficiencyPct = res.CommSpeedupPct / available * 100
			if res.EfficiencyPct > 100 {
				res.EfficiencyPct = 100
			}
		}
	}
	cfg.logf("headline done")
	return res
}

// Render formats the headline summary.
func (r *HeadlineResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Headline numbers (§1/§6)\n")
	fmt.Fprintf(&sb, "  internode latency spread, Orange Grove : %5.1f%%  (paper: up to ≈54%%)\n", r.GroveSpreadPct)
	fmt.Fprintf(&sb, "  internode latency spread, Centurion    : %5.1f%%  (paper: up to ≈13%%)\n", r.CenturionSpreadPct)
	fmt.Fprintf(&sb, "  LU best vs worst random mapping        : %5.1f%%  (paper max: 36.6%%)\n", r.BestVsRandomMaxPct)
	fmt.Fprintf(&sb, "  LU best vs random-population average   : %5.1f%%  (paper: ≈30%%)\n", r.BestVsRandomAvgPct)
	fmt.Fprintf(&sb, "  LU(2) communication-time decrease      : %5.1f%%  (paper: 46.4%%)\n", r.CommSpeedupPct)
	fmt.Fprintf(&sb, "  fraction of available speedup captured : %5.1f%%  (paper: ≈85%%)\n", r.EfficiencyPct)
	return sb.String()
}

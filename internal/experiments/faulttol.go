package experiments

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"cbes/internal/des"
	"cbes/internal/faults"
	"cbes/internal/monitor"
	"cbes/internal/parfor"
	"cbes/internal/remap"
	"cbes/internal/schedule"
	"cbes/internal/simnet"
	"cbes/internal/stats"
	"cbes/internal/vcluster"
)

// FaultTolStep is one observation point of the fault-tolerance study: the
// cluster health the monitor reports, the quality of a fresh CS and RS
// scheduling decision under those conditions, and what the remap advisor
// told the running application to do.
type FaultTolStep struct {
	TimeSec float64
	Down    int
	Suspect int
	// Injected is the cumulative fault-event count at this point.
	Injected int
	// CSPred / RSPred are the predicted execution times of the mappings the
	// communication-sensitive and random schedulers pick from the healthy
	// pool (RS averaged over several draws).
	CSPred       float64
	RSPred       float64
	RSPenaltyPct float64
	// CSDegraded reports that the CS prediction ran in profile-only
	// fallback mode (stale monitoring data on a mapped node).
	CSDegraded bool
	// Advice is the remap advisor's verdict for the running application:
	// "stay", "remap", or "evacuate" (current mapping straddles a dead
	// node). "infeasible" marks steps where too few healthy nodes remained.
	Advice string
}

// FaultTolResult is the fault-tolerance experiment: CS-vs-RS mapping
// quality and remap-advisor behaviour while a seeded fault schedule
// crashes nodes, degrades links, and drops sensors — the degraded-mode
// story the paper's §8 monitoring discussion implies but never measures.
type FaultTolResult struct {
	Steps       []FaultTolStep
	TotalFaults int
	Remaps      int
	Evacuations int
	// MeanRSPenaltyPct is the average extra predicted time RS pays over CS
	// across all feasible observation points.
	MeanRSPenaltyPct float64
	// DegradedSteps counts observation points whose CS prediction fell back
	// to profile-only data.
	DegradedSteps int
}

// FaultTolerance replays a seeded crash/degrade schedule against a fresh
// simulated Orange Grove and, at fixed observation intervals, (a) re-runs
// the CS and RS schedulers on the monitor's (possibly degraded) snapshot,
// and (b) consults the remap advisor for an application that keeps running
// on its original mapping. One crash is aimed at that application's first
// node so the evacuation path is always exercised.
func FaultTolerance(l *Lab, cfg Config) *FaultTolResult {
	prog := luProgram()
	high, med, _ := l.groveGroups()
	eval := l.Evaluator(l.GroveTopo, prog, high)

	// A dedicated simulated instance of the grove: the lab's measurement
	// engines are pooled and reset, while this one accumulates fault state
	// across the whole horizon.
	eng := des.NewEngine()
	defer eng.Shutdown()
	topo := l.GroveTopo
	vc := vcluster.New(eng, topo)
	net := simnet.New(eng, topo)
	mon := monitor.NewSystemMonitor(vc, net, monitor.Config{Noise: monitor.NoNoise})
	inj := faults.NewInjector(vc, net, mon)

	const horizon = 240 * des.Second
	sched := faults.RandomSchedule(topo, faults.RandomConfig{
		Seed:        cfg.Seed + 13,
		Horizon:     horizon,
		Crashes:     3,
		Degrades:    2,
		SensorDrops: 1,
	})
	if err := inj.Install(sched); err != nil {
		panic(err)
	}

	// The running application: CS places it on the medium pool while the
	// cluster is still healthy; the advisor follows it from there.
	pool := med
	effort := cfg.scaled(4000, 1500)
	dec0, err := schedule.SimulatedAnnealing(&schedule.Request{
		Eval: eval, Snap: mon.Snapshot(), Pool: pool, Seed: cfg.Seed, Effort: effort,
	})
	if err != nil {
		panic(err)
	}
	current := dec0.Mapping

	// Aim one crash at the application's first node: the random schedule
	// may well miss the chosen mapping, and the evacuation path is the
	// behaviour this experiment exists to show.
	if err := inj.Install(faults.Schedule{
		{At: horizon / 3, Kind: faults.NodeCrash, Node: current[0]},
		{At: 3 * horizon / 4, Kind: faults.NodeRecover, Node: current[0]},
	}); err != nil {
		panic(err)
	}

	adv := &remap.Advisor{Eval: eval, Pool: pool, MigrationCost: 5, Effort: effort}

	steps := cfg.scaled(12, 6)
	rsRuns := cfg.scaled(8, 3)
	res := &FaultTolResult{}
	var penalties []float64
	for s := 1; s <= steps; s++ {
		ts := horizon * des.Time(s) / des.Time(steps)
		eng.RunUntil(ts)
		snap := mon.Snapshot()
		_, suspect, down := snap.HealthCounts()
		row := FaultTolStep{
			TimeSec:  ts.Seconds(),
			Down:     down,
			Suspect:  suspect,
			Injected: inj.Injected(),
		}

		// Fresh scheduling under the observed conditions: CS plus rsRuns
		// independent RS draws, all over the same snapshot (pure reads), so
		// they fan out; seeds derive from the step and draw indices.
		rsPreds := make([]float64, rsRuns)
		var csDec *schedule.Decision
		var csErr error
		rsErrs := make([]error, rsRuns)
		parfor.Do(cfg.jobs(), rsRuns+1, func(i int) {
			if i == rsRuns {
				csDec, csErr = schedule.SimulatedAnnealing(&schedule.Request{
					Eval: eval, Snap: snap, Pool: pool,
					Seed: cfg.Seed + int64(10*s), Effort: effort,
				})
				return
			}
			d, err := schedule.Random(&schedule.Request{
				Eval: eval, Snap: snap, Pool: pool,
				Seed: cfg.Seed + int64(100*s+i),
			})
			if err != nil {
				rsErrs[i] = err
				return
			}
			rsPreds[i] = d.Predicted
		})
		feasible := csErr == nil
		for _, err := range rsErrs {
			if err != nil {
				feasible = false
			}
		}
		switch {
		case feasible:
			row.CSPred = csDec.Predicted
			row.RSPred = stats.Mean(rsPreds)
			row.RSPenaltyPct = (row.RSPred - row.CSPred) / row.CSPred * 100
			penalties = append(penalties, row.RSPenaltyPct)
			if est, err := eval.Estimate(csDec.Mapping, snap); err == nil && est.Degraded {
				row.CSDegraded = true
				res.DegradedSteps++
			}
		case errors.Is(csErr, schedule.ErrInfeasible):
			row.Advice = "infeasible"
		default:
			panic(csErr)
		}

		// The remap advisor follows the running application; remaining work
		// shrinks linearly over the horizon.
		if row.Advice == "" {
			remaining := float64(steps-s+1) / float64(steps)
			advice, err := adv.Evaluate(current, remaining, snap, cfg.Seed+int64(1000+s))
			switch {
			case errors.Is(err, schedule.ErrInfeasible):
				row.Advice = "infeasible"
			case err != nil:
				panic(err)
			case advice.Remap && math.IsInf(advice.Current, 1):
				row.Advice = "evacuate"
				res.Evacuations++
				res.Remaps++
				current = advice.Mapping
			case advice.Remap:
				row.Advice = "remap"
				res.Remaps++
				current = advice.Mapping
			default:
				row.Advice = "stay"
			}
		}
		res.Steps = append(res.Steps, row)
		cfg.logf("faulttol: t=%.0fs down=%d suspect=%d cs=%.1f rs=%.1f advice=%s",
			row.TimeSec, down, suspect, row.CSPred, row.RSPred, row.Advice)
	}
	res.TotalFaults = inj.Injected()
	if len(penalties) > 0 {
		res.MeanRSPenaltyPct = stats.Mean(penalties)
	}
	return res
}

// Render formats the fault-tolerance timeline.
func (r *FaultTolResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Fault tolerance — CS vs RS and remap advice under a crash/degrade schedule (Orange Grove)\n")
	sb.WriteString("  t(s)   down susp  CS pred(s)  RS pred(s)  RS penalty  degraded  advice\n")
	for _, s := range r.Steps {
		deg := ""
		if s.CSDegraded {
			deg = "yes"
		}
		fmt.Fprintf(&sb, "  %5.0f  %4d %4d  %10.1f  %10.1f  %9.1f%%  %-8s  %s\n",
			s.TimeSec, s.Down, s.Suspect, s.CSPred, s.RSPred, s.RSPenaltyPct, deg, s.Advice)
	}
	fmt.Fprintf(&sb, "  faults injected: %d; remaps: %d (%d forced evacuations); mean RS penalty %.1f%%; degraded steps: %d\n",
		r.TotalFaults, r.Remaps, r.Evacuations, r.MeanRSPenaltyPct, r.DegradedSteps)
	sb.WriteString("  (CS keeps finding near-best healthy mappings; the advisor evacuates the dead node and otherwise holds)\n")
	return sb.String()
}

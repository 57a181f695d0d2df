package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"cbes/internal/bench"
	"cbes/internal/cluster"
	"cbes/internal/core"
	"cbes/internal/des"
	"cbes/internal/monitor"
	"cbes/internal/parfor"
	"cbes/internal/schedule"
	"cbes/internal/stats"
	"cbes/internal/vcluster"
	"cbes/internal/workloads"
)

// AblationResult quantifies the design choices DESIGN.md calls out:
//
//   - the λ correction factor of eq. 7 (vs. assuming λ = 1);
//   - the O(N) path-class latency model (vs. full O(N²) calibration);
//   - NWS-style adaptive forecasting (vs. the Grove prototype's
//     last-value);
//   - the SA scheduler (vs. GA, random, and the exhaustive optimum on a
//     small pool).
type AblationResult struct {
	LambdaOnErr  float64 // mean prediction error % with λ
	LambdaOffErr float64 // mean prediction error % with λ forced to 1

	ClassModelErr    float64 // mean |model-sim| % of class-based curves
	AllPairsModelErr float64 // same for full O(N²) calibration
	ClassCount       int
	PairCount        int

	LastValueRMSE float64 // forecaster error under volatile load
	NWSRMSE       float64

	SchedulerGapPct map[string]float64 // mean gap to exhaustive optimum
}

// Ablations runs all four studies.
func Ablations(l *Lab, cfg Config) *AblationResult {
	res := &AblationResult{SchedulerGapPct: map[string]float64{}}
	res.lambdaStudy(l, cfg)
	res.modelStudy(l, cfg)
	res.forecastStudy(cfg)
	res.schedulerStudy(l, cfg)
	return res
}

// lambdaStudy compares prediction error with and without the λ correction
// in the regime eq. 7 is designed for: computation/communication overlap,
// where the theoretical time Θ overstates the real communication
// contribution and λ < 1 corrects it. The program is a half-overlapped
// synthetic ring on the single-switch east group (4 Alpha + 6 Intel on the
// stack), so contention and collective skew — which the formula cannot
// represent — stay out of the picture.
func (r *AblationResult) lambdaStudy(l *Lab, cfg Config) {
	prog := workloads.Synthetic(workloads.SyntheticConfig{
		Ranks: 8, Iterations: 30, ComputePerIter: 0.03,
		MsgSize: 24 << 10, MsgsPerIter: 2, Overlap: 0.7,
	})
	// The ten stack nodes (IDs 0..9): one switch, no trunk.
	pool := make([]int, 10)
	for i := range pool {
		pool[i] = i
	}
	evalOn := l.Evaluator(l.GroveTopo, prog, pool[:8])
	defer l.dropProfiles(prog.Name)

	rng := rand.New(rand.NewSource(cfg.Seed + 11))
	n := cfg.scaled(16, 6)
	snap := monitor.IdleSnapshot(l.GroveTopo.NumNodes())
	// Pre-draw the mappings serially, then fan the measure+predict pairs out.
	mappings := make([][]int, n)
	for i := range mappings {
		mappings[i] = pickMapping(pool, prog.Ranks, rng)
	}
	errOn := make([]float64, n)
	errOff := make([]float64, n)
	parfor.Do(cfg.jobs(), n, func(i int) {
		m := mappings[i]
		actual := l.Measure(l.GroveTopo, prog, m, vcluster.Background{})
		pOn := predict(evalOn, m, snap)
		errOn[i] = errPct(pOn, actual)

		// λ=1 prediction: undo the per-process λ scaling of the C term in
		// the breakdown (C_i/λ_i = raw Θ_i).
		pred, err := evalOn.Predict(core.Mapping(m), snap)
		if err != nil {
			panic(err)
		}
		adj := 0.0
		for _, seg := range pred.Segments {
			segMax := 0.0
			for _, pe := range seg.Procs {
				c := pe.C
				if pe.Lambda > 0 {
					c = pe.C / pe.Lambda
				}
				if t := pe.R + c; t > segMax {
					segMax = t
				}
			}
			adj += segMax
		}
		errOff[i] = errPct(adj, actual)
	})
	r.LambdaOnErr = stats.Mean(errOn)
	r.LambdaOffErr = stats.Mean(errOff)
	cfg.logf("ablation λ: on %.2f%% off %.2f%%", r.LambdaOnErr, r.LambdaOffErr)
}

// modelStudy compares class-representative calibration against full
// O(N²) calibration on Orange Grove, scoring both against direct
// measurements of random pairs.
func (r *AblationResult) modelStudy(l *Lab, cfg Config) {
	topo := l.GroveTopo
	sizes := []int64{64, 8 << 10}
	classModel := bench.Calibrate(topo, bench.Options{Reps: 3, Sizes: sizes, SkipLoadFit: true})
	allModel := bench.Calibrate(topo, bench.Options{Reps: 3, Sizes: sizes, SkipLoadFit: true, AllPairs: true})
	r.ClassCount = len(classModel.Classes)
	r.PairCount = topo.NumNodes() * (topo.NumNodes() - 1)

	rng := rand.New(rand.NewSource(cfg.Seed + 12))
	probes := cfg.scaled(24, 8)
	// Pre-draw all probe pairs — including the discarded a==b draws, which
	// still consume rng state exactly as the serial loop did — then fan the
	// valid probes out.
	type probe struct {
		a, b int
		size int64
	}
	var valid []probe
	for i := 0; i < probes; i++ {
		a, b := rng.Intn(topo.NumNodes()), rng.Intn(topo.NumNodes())
		if a == b {
			continue
		}
		valid = append(valid, probe{a, b, sizes[i%len(sizes)]})
	}
	classErr := make([]float64, len(valid))
	allErr := make([]float64, len(valid))
	parfor.Do(cfg.jobs(), len(valid), func(i int) {
		p := valid[i]
		direct := bench.MeasurePairLatency(topo, p.a, p.b, p.size, 5, 1.0)
		classErr[i] = errPct(classModel.NoLoad(p.a, p.b, p.size), direct)
		allErr[i] = errPct(allModel.NoLoad(p.a, p.b, p.size), direct)
	})
	r.ClassModelErr = stats.Mean(classErr)
	r.AllPairsModelErr = stats.Mean(allErr)
	cfg.logf("ablation model: class %.2f%% allpairs %.2f%%", r.ClassModelErr, r.AllPairsModelErr)
}

// forecastStudy scores last-value vs NWS-adaptive forecasts of the true
// availability from NOISY sensor observations of a slowly varying load —
// the condition real monitors operate under, where last-value carries the
// full measurement noise while the adaptive predictor family smooths it.
func (r *AblationResult) forecastStudy(cfg Config) {
	eng := des.NewEngine()
	topo := cluster.NewTestTopology()
	vc := vcluster.New(eng, topo)
	vc.RandomWalkLoad(0, 0.6, 0.02, des.Second, cfg.Seed+13)
	noise := rand.New(rand.NewSource(cfg.Seed + 14))

	last := monitor.NewLastValue()
	nws := monitor.NewAdaptive()
	var seLast, seNWS float64
	n := 0
	eng.Spawn("probe", func(p *des.Proc) {
		for i := 0; i < 300; i++ {
			p.Sleep(des.Second)
			truth := vc.Availability(0)
			if i > 0 {
				dl := last.Forecast() - truth
				dn := nws.Forecast() - truth
				seLast += dl * dl
				seNWS += dn * dn
				n++
			}
			observed := truth * (1 + 0.12*noise.NormFloat64())
			last.Update(observed)
			nws.Update(observed)
		}
	})
	eng.RunUntil(400 * des.Second)
	eng.Shutdown()
	r.LastValueRMSE = rmse(seLast, n)
	r.NWSRMSE = rmse(seNWS, n)
	cfg.logf("ablation forecast: last %.4f nws %.4f", r.LastValueRMSE, r.NWSRMSE)
}

func rmse(se float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return math.Sqrt(se / float64(n))
}

// schedulerStudy measures the gap of each scheduler to the exhaustive
// optimum on a small pool.
func (r *AblationResult) schedulerStudy(l *Lab, cfg Config) {
	prog := luProgram()
	high, _, _ := l.groveGroups()
	eval := l.Evaluator(l.GroveTopo, prog, high)
	pool := high // 8 nodes, 8 ranks: 8! mappings, exhaustive feasible
	snap := monitor.IdleSnapshot(l.GroveTopo.NumNodes())
	req := func(seed int64) *schedule.Request {
		return &schedule.Request{Eval: eval, Snap: snap, Pool: pool, Seed: seed, Effort: 2500}
	}
	opt, err := schedule.Exhaustive(req(0))
	if err != nil {
		panic(err)
	}
	type alg struct {
		name string
		run  func(seed int64) (*schedule.Decision, error)
	}
	algs := []alg{
		{"cs", func(s int64) (*schedule.Decision, error) { return schedule.SimulatedAnnealing(req(s)) }},
		{"ga", func(s int64) (*schedule.Decision, error) { return schedule.Genetic(req(s)) }},
		{"rs", func(s int64) (*schedule.Decision, error) { return schedule.Random(req(s)) }},
	}
	trials := cfg.scaled(10, 4)
	gaps := make([][]float64, len(algs))
	for ai := range gaps {
		gaps[ai] = make([]float64, trials)
	}
	parfor.Do(cfg.jobs(), len(algs)*trials, func(i int) {
		ai, s := i/trials, i%trials
		d, err := algs[ai].run(cfg.Seed + 100 + int64(s))
		if err != nil {
			panic(err)
		}
		gaps[ai][s] = (d.Predicted - opt.Predicted) / opt.Predicted * 100
	})
	for ai, a := range algs {
		r.SchedulerGapPct[a.name] = stats.Mean(gaps[ai])
	}
	cfg.logf("ablation schedulers: %v", r.SchedulerGapPct)
}

// Render formats the ablation summary.
func (r *AblationResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Ablations — design-choice studies\n")
	fmt.Fprintf(&sb, "  λ correction (eq. 7):   with λ %.2f%% mean error, λ=1 %.2f%%\n",
		r.LambdaOnErr, r.LambdaOffErr)
	fmt.Fprintf(&sb, "  latency model:          %d classes err %.2f%% vs %d-pair O(N²) err %.2f%%\n",
		r.ClassCount, r.ClassModelErr, r.PairCount, r.AllPairsModelErr)
	fmt.Fprintf(&sb, "  forecasting (volatile): last-value RMSE %.4f vs NWS-adaptive %.4f\n",
		r.LastValueRMSE, r.NWSRMSE)
	sb.WriteString("  scheduler gap to exhaustive optimum:")
	for _, name := range []string{"cs", "ga", "rs"} {
		if v, ok := r.SchedulerGapPct[name]; ok {
			fmt.Fprintf(&sb, "  %s %.2f%%", name, v)
		}
	}
	sb.WriteString("\n")
	return sb.String()
}

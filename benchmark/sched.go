package main

import (
	"context"
	"math"
	"time"

	"cbes"
	"cbes/internal/cluster"
	"cbes/internal/core"
	"cbes/internal/workloads"
)

// schedBench is sched_grove: Schedule RPCs on Orange Grove, where the
// search (anneal / genetic over core.Scorer) is all of the work. The
// operation list is fixed by the seed, so the quality of the chosen
// mappings is an exact number and not a measurement.
type schedBench struct {
	cfg   runConfig
	d     *daemon
	pool  []int
	parts map[string]float64
	// best is the lowest prediction seen for the application in this
	// process: the reference the quality gap is measured against.
	best float64
}

var schedAlgs = []string{"cs", "cs", "ncs", "ga"}

const (
	schedOpsPerSecond = 160  // 2 400 decisions per 15 s on the reference box
	defaultEffort     = 4000 // schedule.Request's default evaluation budget
)

func setupSched(cfg runConfig) (benchRun, error) {
	b := &schedBench{cfg: cfg, parts: map[string]float64{}, best: math.Inf(1)}
	topo := cluster.NewOrangeGrove()
	var err error
	b.d, err = bootDaemon(topo, workloads.LU(workloads.ClassA, 8), topo.NodesByArch(cluster.ArchAlpha), cfg, b.parts)
	if err != nil {
		return nil, err
	}
	b.pool = b.d.sys.Pool(cluster.ArchAlpha, cluster.ArchIntel, cluster.ArchSPARC)
	return b, nil
}

func (b *schedBench) close()                         { b.d.close() }
func (b *schedBench) setupParts() map[string]float64 { return b.parts }

// seedOf gives every operation its own scheduler seed, so no two
// requests share a coalescing key.
func (b *schedBench) seedOf(i int) int64 { return b.cfg.seed*1_000_000 + int64(i) }

// validMapping checks a decision against pool, ranks and the default
// one-rank-per-node slot limit.
func (b *schedBench) validMapping(m []int) bool {
	if len(m) != b.d.prog.Ranks {
		return false
	}
	inPool := map[int]bool{}
	for _, n := range b.pool {
		inPool[n] = true
	}
	for _, n := range m {
		if !inPool[n] {
			return false
		}
		inPool[n] = false // a second rank on the node is one too many
	}
	return true
}

func (b *schedBench) op(tb *spanBuf, c, i int, predicted []float64) op {
	id := int64(i)
	root := tb.begin("op", -1, id)
	defer tb.end(root)
	sp := tb.begin("service.rpc.Schedule", root, id)
	t0 := time.Now()
	r, err := b.d.conns[c].Schedule(b.d.prog.Name, schedAlgs[i%len(schedAlgs)], b.pool, b.seedOf(i))
	o := op{lat: time.Since(t0)}
	tb.end(sp)
	if err != nil || r.Degraded {
		return o
	}
	vs := tb.begin("verify", root, id)
	defer tb.end(vs)
	if !b.validMapping(r.Mapping) || r.Evaluations < 1 || r.Evaluations > defaultEffort {
		return o
	}
	ps := tb.begin("core.predict", vs, id)
	want, err := b.d.eval.Predict(core.Mapping(r.Mapping), b.d.idle)
	tb.end(ps)
	if err != nil || math.Abs(want.Seconds-r.Predicted) > 1e-9 {
		return o
	}
	o.ok, o.a = true, float64(r.Evaluations)
	if predicted != nil {
		predicted[i] = r.Predicted
	}
	return o
}

func (b *schedBench) warm(float64) {
	// Operation indices the timed list never reaches, hence seeds it never uses.
	driveList(b.cfg.clients, 16, 1, func(c, i int) op { return b.op(nil, c, i+500_000, nil) })
}

func (b *schedBench) run(seconds float64, tr *tracer) outcome {
	total := roundTo(schedOpsPerSecond*seconds, listSlices*len(schedAlgs))
	predicted := make([]float64, total)
	p := driveList(b.cfg.clients, total, listSlices, func(c, i int) op { return b.op(tr.buf(c), c, i, predicted) })
	evals := 0.0
	for _, s := range p.slices {
		evals += s.A
	}
	for _, v := range predicted {
		if v > 0 && v < b.best {
			b.best = v
		}
	}
	return outcome{pass: p, exact: map[string]float64{
		"quality_gap_pct":             b.gapPct(predicted),
		"schedule.evals_per_decision": evals / float64(total),
	}}
}

// gapPct is the mean distance of the chosen mappings' predictions from
// the best prediction seen, in percent. Failed operations left a zero
// and are skipped: they are counted in failed_share.
func (b *schedBench) gapPct(predicted []float64) float64 {
	sum, n := 0.0, 0
	for _, v := range predicted {
		if v > 0 {
			sum += v/b.best - 1
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return 100 * sum / float64(n)
}

// roundTo rounds x to the nearest positive multiple of m.
func roundTo(x float64, m int) int {
	n := int(math.Round(x/float64(m))) * m
	if n < m {
		n = m
	}
	return n
}

func (b *schedBench) layers(m map[string]float64, lc layerCtx) {
	eval, idle, name := b.d.eval, b.d.idle, b.d.prog.Name
	direct := func(alg cbes.Algorithm, effort int) func(i int) {
		return func(i int) {
			d, err := cbes.ScheduleOnCtxEffort(context.Background(), eval, idle, alg, b.pool, b.seedOf(i), effort)
			if err == nil && d.Predicted < b.best {
				b.best = d.Predicted
			}
		}
	}
	side := p50sUs(40,
		direct(cbes.AlgCS, 0), direct(cbes.AlgNCS, 0), direct(cbes.AlgGA, 0), direct(cbes.AlgRS, 0),
		func(i int) { _, _ = b.d.conns[0].Schedule(name, "cs", b.pool, b.seedOf(i)) })
	m["schedule.cs_ms"], m["schedule.ncs_ms"], m["schedule.ga_ms"], m["schedule.rs_ms"] = side[0]/1e3, side[1]/1e3, side[2]/1e3, side[3]/1e3
	m["schedule.service_overhead_us"] = side[4] - side[0]
	m["service.coalesced"] = lc.untraced.ctr.coalesced

	// The time-to-quality curve taken from outside: the same CS search
	// on the same seeds at a quarter, half and twice the default effort.
	seeds := int(200 * b.cfg.seconds / 15)
	if seeds < 4 {
		seeds = 4
	}
	efforts := []struct {
		name      string
		effort    int
		predicted []float64
	}{{name: "quarter", effort: defaultEffort / 4}, {name: "half", effort: defaultEffort / 2}, {name: "double", effort: defaultEffort * 2}}
	for e := range efforts {
		efforts[e].predicted = make([]float64, seeds)
		for i := 0; i < seeds; i++ {
			if d, err := cbes.ScheduleOnCtxEffort(context.Background(), eval, idle, cbes.AlgCS, b.pool, b.seedOf(i), efforts[e].effort); err == nil {
				efforts[e].predicted[i] = d.Predicted
				if d.Predicted < b.best {
					b.best = d.Predicted
				}
			}
		}
	}
	for _, e := range efforts { // after every search has had its say on the best
		m["schedule.gap_pct_effort_"+e.name] = b.gapPct(e.predicted)
	}

	mapping := append(core.Mapping(nil), b.pool[:b.d.prog.Ranks]...)
	m["core.predict_us"] = p50Us(300, func(int) { _, _ = eval.Predict(mapping, idle) })
	m["core.predict_allocs"] = allocsPer(300, func(int) { _, _ = eval.Predict(mapping, idle) })
	sc := eval.Scorer()
	m["core.energy_ns"] = meanNs(20000, func(int) { _, _ = sc.Energy(mapping, idle) })
	m["core.delta_ns"] = meanNs(20000, func(i int) {
		sc.Apply(core.Move{Rank: i % len(mapping), To: b.pool[i%len(b.pool)]})
		sc.Undo()
	})
}

package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"cbes/internal/cluster"
	"cbes/internal/core"
	"cbes/internal/monitor"
	"cbes/internal/parfor"
	"cbes/internal/stats"
	"cbes/internal/vcluster"
	"cbes/internal/workloads"
)

// phase1Case is one pre-drawn sweep case, ready to be evaluated in parallel.
type phase1Case struct {
	bedName string
	topo    *cluster.Topology
	eval    *core.Evaluator
	mapping []int
	seed    int64
}

// Phase1Result summarises the synthetic prediction-error sweep of §5
// (phase 1): >16 000 parameter combinations in the paper, covering
// computation/communication overlap, communication granularity, execution
// duration, and the mapping space of both clusters. The paper found over
// 90 % of cases within 4 % error and a mean of ≈2 % ± 0.75 %.
type Phase1Result struct {
	Cases        int
	Errors       []float64 // per-case prediction error, %
	FracWithin4  float64
	MeanErr      float64
	MeanErrCI    float64
	P95Err       float64
	WorstErr     float64
	ByOverlap    map[string]float64 // mean error per overlap bucket
	ByGranular   map[string]float64 // mean error per message-size bucket
	ClusterCases map[string]int
}

// Phase1Sweep runs the synthetic benchmark sweep on both testbeds.
func Phase1Sweep(l *Lab, cfg Config) *Phase1Result {
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	res := &Phase1Result{
		ByOverlap:    map[string]float64{},
		ByGranular:   map[string]float64{},
		ClusterCases: map[string]int{},
	}
	overlapCount := map[string]int{}
	granCount := map[string]int{}

	// Granularities span the latency-bound regime up to the eager/
	// rendezvous boundary. Larger transfers saturate the Orange Grove
	// federation trunk, whose queueing the additive latency model of eq. 6
	// cannot represent (documented in EXPERIMENTS.md).
	overlaps := []float64{0, 0.25, 0.5, 0.75, 1.0}
	sizes := []int64{1 << 10, 8 << 10, 32 << 10, 64 << 10}
	durations := []int{5, 20, 45} // iterations: short / medium / long
	if cfg.scale() <= 0.05 {
		// Tiny-scale runs (tests, benches) trim the sweep dimensions.
		overlaps = []float64{0, 0.5, 1.0}
		sizes = []int64{8 << 10, 64 << 10}
		durations = []int{5, 20}
	}
	mappingsPerConfig := cfg.scaled(12, 6)

	centTopo, _ := l.Centurion()
	type bed struct {
		name string
		pool []int
	}
	groveHigh, groveMed, groveLow := l.groveGroups()
	// Centurion's mapping space dwarfs Orange Grove's (128 vs 28 nodes),
	// so half the sweep cases live there: one bed of nodes packed onto two
	// switches, one spread round-robin across all eight, and one mixing
	// both architectures of a single switch.
	beds := []bed{
		{"grove-high", groveHigh},
		{"cent-spread", centurionSpread(centTopo, 16)},
		{"grove-med", groveMed},
		{"cent-packed", append(append([]int{}, centTopo.NodesOnSwitch(1)...), centTopo.NodesOnSwitch(2)...)},
		{"grove-low", groveLow},
		{"cent-switch", centTopo.NodesOnSwitch(3)},
	}

	for _, overlap := range overlaps {
		for _, size := range sizes {
			for _, iters := range durations {
				prog := workloads.Synthetic(workloads.SyntheticConfig{
					Ranks:          8,
					Iterations:     iters,
					ComputePerIter: 0.06,
					MsgSize:        size,
					MsgsPerIter:    2,
					Overlap:        overlap,
				})
				// Serial pre-pass: profile/evaluator cache population and
				// every rng draw happen in the original loop order; the
				// predict+measure work — all of the cost — then fans out
				// with results landing by index.
				cases := make([]phase1Case, mappingsPerConfig)
				for m := 0; m < mappingsPerConfig; m++ {
					c := &cases[m]
					c.bedName = beds[m%len(beds)].name
					pool := beds[m%len(beds)].pool
					c.topo = l.GroveTopo
					if strings.HasPrefix(c.bedName, "cent") {
						c.topo = centTopo
					}
					c.eval = l.Evaluator(c.topo, prog, pool[:8])
					// Most mappings are node-list-contiguous (the shape
					// real allocators hand out); a minority are fully
					// random scatters, which stress the model hardest.
					if m%4 == 3 {
						c.mapping = pickMapping(pool, 8, rng)
					} else {
						c.mapping = pickContiguous(pool, 8, rng)
					}
					c.seed = rng.Int63()
				}
				errs := make([]float64, mappingsPerConfig)
				parfor.Do(cfg.jobs(), mappingsPerConfig, func(m int) {
					c := &cases[m]
					pred := predict(c.eval, c.mapping, monitor.IdleSnapshot(c.topo.NumNodes()))
					actual := l.Measure(c.topo, prog, c.mapping, vcluster.Background{Noise: true, Seed: c.seed})
					errs[m] = errPct(pred, actual)
				})
				for m := 0; m < mappingsPerConfig; m++ {
					e := errs[m]
					res.Errors = append(res.Errors, e)
					res.Cases++
					res.ClusterCases[cases[m].bedName]++
					ok := fmt.Sprintf("%.2f", overlap)
					res.ByOverlap[ok] += e
					overlapCount[ok]++
					gk := sizeBucket(size)
					res.ByGranular[gk] += e
					granCount[gk]++
				}
				// Each synthetic config gets its own profile cache entry;
				// clear so the next config re-profiles.
				l.dropProfiles(prog.Name)
			}
		}
		cfg.logf("phase1: overlap %.2f done (%d cases)", overlap, res.Cases)
	}

	for k := range res.ByOverlap {
		res.ByOverlap[k] /= float64(overlapCount[k])
	}
	for k := range res.ByGranular {
		res.ByGranular[k] /= float64(granCount[k])
	}
	res.FracWithin4 = stats.FractionBelow(res.Errors, 4.0)
	res.MeanErr, res.MeanErrCI = stats.MeanCI(res.Errors)
	res.P95Err = stats.Percentile(res.Errors, 95)
	res.WorstErr = stats.Max(res.Errors)
	return res
}

// sizeBucket labels a message size for reporting.
func sizeBucket(size int64) string {
	switch {
	case size <= 1<<10:
		return "1KB"
	case size <= 8<<10:
		return "8KB"
	case size <= 32<<10:
		return "32KB"
	default:
		return "64KB"
	}
}

// centurionSpread picks n Centurion nodes spread round-robin over the edge
// switches with mixed architectures.
func centurionSpread(topo *cluster.Topology, n int) []int {
	var pool []int
	for i := 0; len(pool) < n; i++ {
		for sw := 1; sw <= 8 && len(pool) < n; sw++ {
			nodes := topo.NodesOnSwitch(sw)
			if i < len(nodes) {
				pool = append(pool, nodes[i])
			}
		}
	}
	return pool
}

// Render formats the result as a paper-style summary.
func (r *Phase1Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Phase 1 — synthetic prediction-error sweep (%d cases)\n", r.Cases)
	fmt.Fprintf(&sb, "  cases with error <= 4%% : %5.1f%%   (paper: >90%%)\n", r.FracWithin4*100)
	fmt.Fprintf(&sb, "  mean error            : %5.2f%% ± %.2f%% (95%% CI)  (paper: ≈2%% ± 0.75%%)\n", r.MeanErr, r.MeanErrCI)
	fmt.Fprintf(&sb, "  95th percentile       : %5.2f%%\n", r.P95Err)
	fmt.Fprintf(&sb, "  worst case            : %5.2f%%\n", r.WorstErr)
	sb.WriteString("  mean error by overlap  :")
	for _, k := range []string{"0.00", "0.25", "0.50", "0.75", "1.00"} {
		if v, ok := r.ByOverlap[k]; ok {
			fmt.Fprintf(&sb, "  %s→%.2f%%", k, v)
		}
	}
	sb.WriteString("\n  mean error by msg size :")
	for _, k := range []string{"1KB", "8KB", "32KB", "64KB"} {
		if v, ok := r.ByGranular[k]; ok {
			fmt.Fprintf(&sb, "  %s→%.2f%%", k, v)
		}
	}
	sb.WriteString("\n")
	for _, b := range []string{"grove-high", "grove-med", "grove-low", "cent-spread", "cent-packed", "cent-switch"} {
		if c, ok := r.ClusterCases[b]; ok {
			fmt.Fprintf(&sb, "  %-12s %d cases\n", b, c)
		}
	}
	return sb.String()
}

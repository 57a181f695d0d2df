// Package genetic provides a generic genetic-algorithm minimizer — the
// alternative scheduling algorithm the paper names as future work (§8) and
// that TITAN [35] employs. It is used by the GA variant of the CBES
// scheduler and by the scheduler-comparison ablation.
package genetic

import (
	"context"
	"math/rand"
	"sort"

	"cbes/internal/obs"
)

// GA observability: run/generation/evaluation counters plus the last
// finished run's best fitness.
var (
	metricRuns = obs.Default().Counter(
		"cbes_ga_runs_total", "Completed GA runs.")
	metricGenerations = obs.Default().Counter(
		"cbes_ga_generations_total", "Generations evolved across all GA runs.")
	metricEvals = obs.Default().Counter(
		"cbes_ga_evals_total", "Fitness evaluations across all GA runs.")
	gaugeBestFitness = obs.Default().Gauge(
		"cbes_ga_best_fitness", "Best fitness of the last finished GA run.")
)

// The GA's shape: each generation breeds population children from
// tournament selection over the previous one (no elites), each child is
// mutated with probability mutationRate, and evolution stops after
// generations generations. A run therefore spends at most
// population·(generations+1) = 2 440 evaluations, whatever its budget.
const (
	population   = 40
	generations  = 60
	mutationRate = 0.3
	tournamentK  = 3
)

// Config bounds one GA run.
type Config struct {
	// MaxEvaluations caps total fitness evaluations (default 20000).
	MaxEvaluations int
	// Seed drives all randomness.
	Seed int64
	// Ctx, when non-nil, parents this run's trace span under the
	// context's active span (nil records a root span).
	Ctx context.Context
}

// Stats reports what the GA did.
type Stats struct {
	Evaluations int
	Generations int
	// Cancelled reports that evolution stopped early because Config.Ctx
	// expired; the returned best covers only the generations completed.
	Cancelled bool
}

// Ops supplies the problem-specific genetic operators over genome G.
type Ops[G any] struct {
	// NewIndividual creates a random valid genome.
	NewIndividual func(*rand.Rand) G
	// Fitness scores a genome; lower is better.
	Fitness func(G) float64
	// Crossover combines two parents into a child (must not alias parents).
	Crossover func(a, b G, rng *rand.Rand) G
	// Mutate perturbs a genome in place or returns a modified copy.
	Mutate func(G, *rand.Rand) G
}

type scored[G any] struct {
	g G
	f float64
}

// Minimize evolves a population and returns the best genome it evaluated,
// its fitness, and statistics. Without elites a generation can lose its
// parents' best, so the answer is tracked across every evaluation rather
// than read off the last generation.
func Minimize[G any](cfg Config, ops Ops[G]) (G, float64, Stats) {
	if cfg.MaxEvaluations <= 0 {
		cfg.MaxEvaluations = 20000
	}
	span, _ := obs.StartSpan(cfg.Ctx, "ga.run")
	rng := rand.New(rand.NewSource(cfg.Seed))
	st := Stats{}
	var best scored[G]
	score := func(g G) scored[G] {
		s := scored[G]{g, ops.Fitness(g)}
		if st.Evaluations == 0 || s.f < best.f {
			best = s
		}
		st.Evaluations++
		return s
	}

	// The initial population also counts against the evaluation budget: at
	// least one individual is always scored, but a budget smaller than the
	// population size truncates it rather than overrunning.
	pop := make([]scored[G], 0, population)
	for i := 0; i < population; i++ {
		if i > 0 && st.Evaluations >= cfg.MaxEvaluations {
			break
		}
		pop = append(pop, score(ops.NewIndividual(rng)))
	}
	sortPop(pop)

	var done <-chan struct{}
	if cfg.Ctx != nil {
		done = cfg.Ctx.Done()
	}
evolve:
	for gen := 0; gen < generations && st.Evaluations < cfg.MaxEvaluations; gen++ {
		select {
		case <-done:
			// Deadline propagation: stop evolving and keep the best so far.
			st.Cancelled = true
			break evolve
		default:
		}
		next := make([]scored[G], 0, population)
		for len(next) < population && st.Evaluations < cfg.MaxEvaluations {
			a := tournament(pop, rng)
			b := tournament(pop, rng)
			child := ops.Crossover(a.g, b.g, rng)
			if rng.Float64() < mutationRate {
				child = ops.Mutate(child, rng)
			}
			next = append(next, score(child))
		}
		pop = next
		sortPop(pop)
		st.Generations++
	}
	metricRuns.Inc()
	metricGenerations.Add(uint64(st.Generations))
	metricEvals.Add(uint64(st.Evaluations))
	gaugeBestFitness.Set(best.f)
	span.Attr("generations", st.Generations).
		Attr("evals", st.Evaluations).
		Attr("best_fitness", best.f).
		End()
	return best.g, best.f, st
}

// sortPop orders a generation by fitness, stably. Tournaments draw
// genomes by index, so this order decides which genomes meet.
func sortPop[G any](pop []scored[G]) {
	sort.SliceStable(pop, func(i, j int) bool { return pop[i].f < pop[j].f })
}

func tournament[G any](pop []scored[G], rng *rand.Rand) scored[G] {
	best := pop[rng.Intn(len(pop))]
	for i := 1; i < tournamentK; i++ {
		c := pop[rng.Intn(len(pop))]
		if c.f < best.f {
			best = c
		}
	}
	return best
}

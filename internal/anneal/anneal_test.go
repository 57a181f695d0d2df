package anneal

import (
	"math"
	"math/rand"
	"testing"
)

// walk adapts a 1-D integer walk to Problem for testing: the state is a
// single int and a move is a step drawn by step (-1, 0 or +1 when nil).
type walk struct {
	x, prev int
	best    int
	energy  func(int) float64
	step    func(*rand.Rand) int
	applies int
}

func (p *walk) problem() Problem[int] {
	step := p.step
	if step == nil {
		step = func(r *rand.Rand) int { return r.Intn(3) - 1 }
	}
	return Problem[int]{
		InitialEnergy: p.energy(p.x),
		Propose: func(r *rand.Rand) (int, bool) {
			return step(r), true
		},
		Apply: func(mv int) float64 {
			p.prev = p.x
			p.x += mv
			p.applies++
			return p.energy(p.x)
		},
		Undo:   func() { p.x = p.prev },
		OnBest: func() { p.best = p.x },
	}
}

// quadratic: minimize (x-7)^2 over integers via +-1 moves.
func TestMinimizeQuadratic(t *testing.T) {
	p := &walk{x: 100,
		energy: func(x int) float64 { d := float64(x - 7); return d * d },
		step:   func(r *rand.Rand) int { return 1 - 2*r.Intn(2) }}
	e, st := Minimize(Config{Seed: 1}, p.problem())
	if p.best != 7 || e != 0 {
		t.Fatalf("best = %d (e=%v), want 7", p.best, e)
	}
	if st.Evaluations == 0 || st.Accepted == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

// A rugged 1-D landscape with a deep global minimum at 42 among many local
// minima: SA must escape local traps that greedy descent cannot.
func TestMinimizeRugged(t *testing.T) {
	p := &walk{x: 120,
		energy: func(x int) float64 {
			fx := float64(x)
			return 0.05*math.Abs(fx-42) + 2*math.Pow(math.Sin(fx/3), 2)
		},
		step: func(r *rand.Rand) int { return r.Intn(13) - 6 }}
	Minimize(Config{Seed: 3, MaxEvaluations: 60000}, p.problem())
	if math.Abs(float64(p.best-42)) > 8 {
		t.Fatalf("best = %d, want near 42", p.best)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	run := func() (int, float64) {
		p := &walk{x: 500,
			energy: func(x int) float64 { d := float64(x - 13); return d*d + math.Sin(float64(x)) },
			step:   func(r *rand.Rand) int { return r.Intn(9) - 4 }}
		e, _ := Minimize(Config{Seed: 9}, p.problem())
		return p.best, e
	}
	b1, e1 := run()
	b2, e2 := run()
	if b1 != b2 || e1 != e2 {
		t.Fatalf("nondeterministic: (%d,%v) vs (%d,%v)", b1, e1, b2, e2)
	}
}

// Every energy computed, the initial one included, is one reported
// evaluation.
func TestRespectsEvaluationCap(t *testing.T) {
	calls := 0
	p := &walk{x: 50, energy: func(x int) float64 { calls++; return float64(x * x) }}
	_, st := Minimize(Config{Seed: 1, MaxEvaluations: 100}, p.problem())
	if st.Evaluations > 100 {
		t.Fatalf("evaluations = %d > cap", st.Evaluations)
	}
	if calls != st.Evaluations {
		t.Fatalf("calls %d != reported %d", calls, st.Evaluations)
	}
}

func TestBestNeverWorseThanInitial(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		p := &walk{x: 1000,
			energy: func(x int) float64 { return math.Abs(float64(x)) },
			step:   func(r *rand.Rand) int { return r.Intn(21) - 10 }}
		e, _ := Minimize(Config{Seed: seed, MaxEvaluations: 500}, p.problem())
		if e > 1000 {
			t.Fatalf("seed %d: best %v worse than initial 1000", seed, e)
		}
	}
}

func TestConstantEnergyNoCrash(t *testing.T) {
	p := &walk{energy: func(int) float64 { return 5 }, step: func(*rand.Rand) int { return 1 }}
	e, _ := Minimize(Config{Seed: 1, MaxEvaluations: 200}, p.problem())
	if e != 5 {
		t.Fatalf("e = %v", e)
	}
}

func BenchmarkAnnealQuadratic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := &walk{x: 100, energy: func(x int) float64 { d := float64(x - 7); return d * d }}
		Minimize(Config{Seed: int64(i), MaxEvaluations: 2000}, p.problem())
	}
}

func TestIncrementalFindsMinimum(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		p := &walk{x: 60, energy: func(x int) float64 { d := float64(x - 7); return d * d }}
		e, st := Minimize(Config{Seed: seed, MaxEvaluations: 4000}, p.problem())
		if e > 4 {
			t.Fatalf("seed %d: best energy %v (x=%d), expected near 0", seed, e, p.best)
		}
		if st.Evaluations > 4000 {
			t.Fatalf("seed %d: evaluations %d exceed cap", seed, st.Evaluations)
		}
	}
}

func TestIncrementalBudgetExact(t *testing.T) {
	// Every budget — including ones smaller than the auto-temperature
	// walk — is a hard cap, and Apply calls are evaluations minus the
	// initial one.
	for _, budget := range []int{1, 2, 5, 24, 25, 100, 1000} {
		p := &walk{x: 50, energy: func(x int) float64 { return float64(x * x) }}
		_, st := Minimize(Config{Seed: 3, MaxEvaluations: budget}, p.problem())
		if st.Evaluations > budget {
			t.Fatalf("budget %d: used %d", budget, st.Evaluations)
		}
		if p.applies != st.Evaluations-1 {
			t.Fatalf("budget %d: %d applies vs %d reported evaluations",
				budget, p.applies, st.Evaluations)
		}
	}
}

func TestIncrementalBestNeverWorseThanInitial(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		p := &walk{x: 1000, energy: func(x int) float64 { return math.Abs(float64(x)) }}
		e, _ := Minimize(Config{Seed: seed, MaxEvaluations: 500}, p.problem())
		if e > 1000 {
			t.Fatalf("seed %d: best %v worse than initial 1000", seed, e)
		}
	}
}

func TestIncrementalNoProposalsTerminates(t *testing.T) {
	p := Problem[int]{
		InitialEnergy: 5,
		Propose:       func(*rand.Rand) (int, bool) { return 0, false },
		Apply:         func(int) float64 { panic("apply without proposal") },
		Undo:          func() {},
	}
	e, st := Minimize(Config{Seed: 1, MaxEvaluations: 100}, p)
	if e != 5 || st.Evaluations != 1 {
		t.Fatalf("e=%v evals=%d", e, st.Evaluations)
	}
}

package genetic

import (
	"math"
	"math/rand"
	"testing"
)

// bitOps builds operators for minimizing the number of 1-bits differing
// from a target pattern (onemax-style).
func bitOps(target uint32) Ops[uint32] {
	return Ops[uint32]{
		NewIndividual: func(r *rand.Rand) uint32 { return r.Uint32() },
		Fitness: func(g uint32) float64 {
			return float64(popcount(g ^ target))
		},
		Crossover: func(a, b uint32, r *rand.Rand) uint32 {
			mask := r.Uint32()
			return (a & mask) | (b &^ mask)
		},
		Mutate: func(g uint32, r *rand.Rand) uint32 {
			return g ^ (1 << uint(r.Intn(32)))
		},
	}
}

func popcount(x uint32) int {
	c := 0
	for x != 0 {
		x &= x - 1
		c++
	}
	return c
}

func TestMinimizeBits(t *testing.T) {
	best, f, st := Minimize(Config{Seed: 5}, bitOps(0xDEADBEEF))
	if f > 2 {
		t.Fatalf("fitness = %v (best %x), want <= 2", f, best)
	}
	if st.Evaluations == 0 || st.Generations == 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (uint32, float64) {
		b, f, _ := Minimize(Config{Seed: 11}, bitOps(0x12345678))
		return b, f
	}
	b1, f1 := run()
	b2, f2 := run()
	if b1 != b2 || f1 != f2 {
		t.Fatal("nondeterministic for fixed seed")
	}
}

func TestEvaluationCap(t *testing.T) {
	calls := 0
	ops := bitOps(0)
	inner := ops.Fitness
	ops.Fitness = func(g uint32) float64 { calls++; return inner(g) }
	_, _, st := Minimize(Config{Seed: 1, MaxEvaluations: 300}, ops)
	if calls > 300 || st.Evaluations != calls {
		t.Fatalf("calls = %d, reported %d", calls, st.Evaluations)
	}
}

// needle scores a genome by a hash of its bits: a landscape with no
// structure, where children rarely match their parents' fitness, so
// without elites the best genome is easily lost between generations.
func needle(g uint32) float64 {
	x := uint64(g) * 0x9E3779B97F4A7C15
	x ^= x >> 31
	return float64(x % 100000)
}

// The answer is the best genome GA evaluated, not the best of its last
// generation.
func TestReturnsBestEvaluated(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		bestSeen := math.Inf(1)
		var bestG uint32
		ops := bitOps(0)
		ops.Fitness = func(g uint32) float64 {
			f := needle(g)
			if f < bestSeen {
				bestSeen, bestG = f, g
			}
			return f
		}
		g, f, _ := Minimize(Config{Seed: seed}, ops)
		if f != bestSeen || needle(g) != f {
			t.Fatalf("seed %d: returned %x with fitness %v, best evaluated %x with %v",
				seed, g, f, bestG, bestSeen)
		}
	}
}

// An unset budget runs the full shape: the initial population plus every
// generation's children.
func TestDefaultsApplied(t *testing.T) {
	_, _, st := Minimize(Config{Seed: 3}, bitOps(0))
	if st.Generations != generations || st.Evaluations != population*(generations+1) {
		t.Fatalf("stats %+v, want %d generations and %d evaluations",
			st, generations, population*(generations+1))
	}
}

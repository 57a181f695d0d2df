package workloads

import (
	"fmt"

	"cbes/internal/cluster"
	"cbes/internal/mpisim"
)

// Iterative describes a program as N repetitions of a core segment — the
// structure §6 of the paper leans on when amortizing scheduler overhead
// ("an application run may consist of a core segment repeated any number
// of times") and the unit of the checkpoint/remap executor
// (internal/remap).
type Iterative struct {
	// Name labels the program; segment programs derive their names from it.
	Name string
	// Ranks is the number of MPI processes.
	Ranks int
	// Iterations is the total repetition count.
	Iterations int
	// ArchEff carries the per-architecture efficiency multipliers.
	ArchEff map[cluster.Arch]float64
	// IterBody executes one iteration on a rank.
	IterBody func(r *mpisim.Rank, iter int)
	// Setup, when non-nil, runs once per (re)start before the first
	// iteration of a segment — e.g. reloading checkpointed state.
	Setup func(r *mpisim.Rank)
}

// Program assembles the full run (all iterations) — the form used for
// profiling and one-shot execution.
func (it Iterative) Program() Program {
	return it.Segment(0, it.Iterations)
}

// Segment assembles a program executing iterations [from, to).
func (it Iterative) Segment(from, to int) Program {
	if from < 0 || to > it.Iterations || from >= to {
		panic(fmt.Sprintf("workloads: bad segment [%d,%d) of %d", from, to, it.Iterations))
	}
	name := it.Name
	if from != 0 || to != it.Iterations {
		name = fmt.Sprintf("%s[%d:%d]", it.Name, from, to)
	}
	return Program{
		Name:    name,
		Ranks:   it.Ranks,
		ArchEff: it.ArchEff,
		Body: func(r *mpisim.Rank) {
			if it.Setup != nil {
				it.Setup(r)
			}
			for i := from; i < to; i++ {
				it.IterBody(r, i)
			}
		},
	}
}

// SMGIterative is smg2000 expressed iteratively (one V-cycle per
// iteration).
func SMGIterative(cube, ranks int) Iterative {
	vol := float64(cube*cube*cube) / (50.0 * 50.0 * 50.0)
	area := float64(cube*cube) / (50.0 * 50.0)
	px, py := grid2D(ranks)
	face := int64(80_000 * area)
	if face < 2048 {
		face = 2048
	}
	cycles := 40
	if cube <= 16 {
		cycles = 380
	}
	perCycleComp := 1.50 * vol * 8.0 / float64(ranks)
	return Iterative{
		Name:       fmt.Sprintf("smg2000.%d.%d", cube, ranks),
		Ranks:      ranks,
		Iterations: cycles,
		ArchEff: map[cluster.Arch]float64{
			cluster.ArchAlpha: 1.0, cluster.ArchIntel: 0.96, cluster.ArchSPARC: 0.92,
		},
		IterBody: func(r *mpisim.Rank, _ int) {
			for lvl := 0; lvl < 5; lvl++ {
				r.Compute(perCycleComp / 1.94 / float64(int(1)<<uint(lvl)))
				sz := face >> uint(lvl)
				if sz < 2048 {
					sz = 2048
				}
				exchange2D(r, px, py, sz)
			}
			r.Allreduce(8, 0)
		},
	}
}

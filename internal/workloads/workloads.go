// Package workloads models the parallel applications of the paper's
// evaluation as mpisim programs: the configurable synthetic benchmark of
// the phase-1 validation sweep, the NAS Parallel Benchmarks 2.4 kernels
// (IS, EP, CG, MG, SP, BT, LU) for input classes S/A/B, High Performance
// Linpack, and the ASCI Purple selection (sweep3d, smg2000, SAMRAI,
// Towhee, Aztec).
//
// The models are communication-pattern-faithful rather than numerically
// faithful: each reproduces its program's process topology, message sizes,
// message counts, and computation/communication ratio at the granularity
// the CBES profile captures (same-size message groups per peer and the
// X/O/B state split), which is exactly what the paper's conclusions rest
// on. Absolute times are scaled to land in the ranges tables 1–4 report.
package workloads

import (
	"fmt"

	"cbes/internal/cluster"
	"cbes/internal/mpisim"
)

// Program is a runnable parallel application model.
type Program struct {
	// Name labels profiles and experiment rows, e.g. "lu.B.8".
	Name string
	// Ranks is the number of MPI processes the program requires.
	Ranks int
	// Body is the SPMD program body.
	Body func(*mpisim.Rank)
	// ArchEff holds per-architecture efficiency multipliers (application-
	// specific cache/ILP behavior on top of the architecture base speed).
	ArchEff map[cluster.Arch]float64
}

// Options assembles the mpisim options for this program.
func (p Program) Options() mpisim.Options {
	return mpisim.Options{AppName: p.Name, ArchEff: p.ArchEff}
}

// Class identifies an NPB input class.
type Class string

// NPB input classes used in the paper's figure 5.
const (
	ClassS Class = "S"
	ClassA Class = "A"
	ClassB Class = "B"
)

// classScale returns (computeScale, sizeScale, iterScale) multipliers for
// an NPB class relative to class A.
func classScale(c Class) (comp, size, iter float64) {
	switch c {
	case ClassS:
		return 0.02, 0.15, 0.4
	case ClassB:
		return 4.0, 2.0, 1.0
	default: // ClassA
		return 1.0, 1.0, 1.0
	}
}

// grid2D factors n into the most square px*py = n grid (px <= py).
func grid2D(n int) (px, py int) {
	px = 1
	for f := 1; f*f <= n; f++ {
		if n%f == 0 {
			px = f
		}
	}
	return px, n / px
}

// gridCoords returns rank r's coordinates in a px*py grid.
func gridCoords(r, px int) (x, y int) { return r % px, r / px }

// gridRank returns the rank at (x, y) in a px*py grid.
func gridRank(x, y, px int) int { return y*px + x }

// exchange2D performs a parity-ordered halo exchange with the four grid
// neighbors (non-periodic boundaries).
func exchange2D(r *mpisim.Rank, px, py int, size int64) {
	x, y := gridCoords(r.ID(), px)
	// X-direction pairs, then Y-direction pairs; parity inside SendRecv
	// keeps each pairwise exchange deadlock-free, and ordering all X
	// exchanges before Y exchanges keeps rounds aligned.
	if x > 0 {
		r.SendRecv(gridRank(x-1, y, px), size, size)
	}
	if x < px-1 {
		r.SendRecv(gridRank(x+1, y, px), size, size)
	}
	if y > 0 {
		r.SendRecv(gridRank(x, y-1, px), size, size)
	}
	if y < py-1 {
		r.SendRecv(gridRank(x, y+1, px), size, size)
	}
}

// SyntheticConfig parameterizes the phase-1 synthetic benchmark: a ring
// program "configurable in terms of computation and communication overlap,
// communication granularity, and execution duration".
type SyntheticConfig struct {
	Ranks int
	// Iterations controls execution duration.
	Iterations int
	// ComputePerIter is the reference-seconds of computation per iteration
	// per rank.
	ComputePerIter float64
	// MsgSize is the communication granularity in bytes.
	MsgSize int64
	// MsgsPerIter is the number of ring exchanges per iteration.
	MsgsPerIter int
	// Overlap in [0,1] is the fraction of each iteration's computation
	// performed between posting sends and consuming receives, overlapping
	// communication with computation.
	Overlap float64
}

// Synthetic builds the phase-1 benchmark program.
func Synthetic(cfg SyntheticConfig) Program {
	if cfg.Ranks < 2 {
		cfg.Ranks = 2
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 10
	}
	if cfg.MsgsPerIter <= 0 {
		cfg.MsgsPerIter = 1
	}
	if cfg.Overlap < 0 {
		cfg.Overlap = 0
	}
	if cfg.Overlap > 1 {
		cfg.Overlap = 1
	}
	return Program{
		Name: fmt.Sprintf("synth.n%d.s%d.o%02d.i%d.m%d",
			cfg.Ranks, cfg.MsgSize, int(cfg.Overlap*100), cfg.Iterations, cfg.MsgsPerIter),
		Ranks: cfg.Ranks,
		Body: func(r *mpisim.Rank) {
			n := r.Size()
			right := (r.ID() + 1) % n
			left := (r.ID() - 1 + n) % n
			pre := cfg.ComputePerIter * (1 - cfg.Overlap)
			mid := cfg.ComputePerIter * cfg.Overlap
			eager := cfg.MsgSize <= mpisim.EagerThreshold
			for it := 0; it < cfg.Iterations; it++ {
				r.Compute(pre)
				for m := 0; m < cfg.MsgsPerIter; m++ {
					if eager {
						// Everyone injects, computes the overlapped share
						// while the ring messages fly, then consumes: mid
						// compute genuinely hides latency.
						r.Send(right, cfg.MsgSize)
						if m == 0 && mid > 0 {
							r.Compute(mid)
						}
						r.Recv(left)
						continue
					}
					// Rendezvous sizes: blocking semantics force parity
					// ordering; the overlap knob cannot hide the transfer.
					if r.ID()%2 == 0 {
						r.Send(right, cfg.MsgSize)
						if m == 0 && mid > 0 {
							r.Compute(mid)
						}
						r.Recv(left)
					} else {
						r.Recv(left)
						if m == 0 && mid > 0 {
							r.Compute(mid)
						}
						r.Send(right, cfg.MsgSize)
					}
				}
			}
		},
	}
}

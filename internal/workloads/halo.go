package workloads

import (
	"fmt"

	"cbes/internal/mpisim"
)

// Halo2DConfig parameterizes the structured-topology scale workload: an
// iterative 2D stencil whose ranks exchange fixed-size halos with their
// four grid neighbors each iteration, then compute.
type Halo2DConfig struct {
	Ranks int
	// Iterations is the number of exchange+compute rounds (default 4).
	Iterations int
	// MsgSize is the halo size in bytes (default 8 KiB).
	MsgSize int64
	// ComputePerIter is the reference-seconds of computation per rank per
	// iteration (default 0.005).
	ComputePerIter float64
}

// Halo2D builds the scale-testing stencil program. Unlike the NPB models
// it has no class scaling or architecture efficiencies — it exists to
// drive many-node topologies with a regular nearest-neighbor pattern whose
// cost is dominated by the fabric, which is what the 1k/5k fat-tree
// benchmarks measure.
func Halo2D(cfg Halo2DConfig) Program {
	if cfg.Ranks < 2 {
		cfg.Ranks = 2
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 4
	}
	if cfg.MsgSize <= 0 {
		cfg.MsgSize = 8 << 10
	}
	if cfg.ComputePerIter <= 0 {
		cfg.ComputePerIter = 0.005
	}
	px, py := grid2D(cfg.Ranks)
	return Program{
		Name:  fmt.Sprintf("halo2d.n%d.s%d.i%d", cfg.Ranks, cfg.MsgSize, cfg.Iterations),
		Ranks: cfg.Ranks,
		Body: func(r *mpisim.Rank) {
			for it := 0; it < cfg.Iterations; it++ {
				exchange2D(r, px, py, cfg.MsgSize)
				r.Compute(cfg.ComputePerIter)
			}
		},
	}
}

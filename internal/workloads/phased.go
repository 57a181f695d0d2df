package workloads

import (
	"fmt"

	"cbes/internal/mpisim"
)

// Phased builds a ring exchange with one named Phase per iteration, so
// the recorded profile keeps a segment per iteration instead of merging
// the whole run. Prediction cost scales with segments × ranks, which
// makes this the knob for compute-heavy Evaluate/Compare requests: the
// stock registry applications record only a handful of segments, so
// their predictions are transport-dominated sub-millisecond calls, far
// too cheap to saturate the service's compute path. The overload
// experiment and cbesd's end-to-end daemon test drive phased programs
// for exactly that reason.
func Phased(phases, ranks int) Program {
	if ranks < 2 {
		ranks = 2
	}
	if phases < 1 {
		phases = 1
	}
	return Program{
		Name:  fmt.Sprintf("phased.%d.%d", phases, ranks),
		Ranks: ranks,
		Body: func(r *mpisim.Rank) {
			n := r.Size()
			right, left := (r.ID()+1)%n, (r.ID()-1+n)%n
			for it := 0; it < phases; it++ {
				r.Phase(fmt.Sprintf("it%d", it))
				r.Compute(0.02)
				r.Send(right, 16<<10)
				r.Recv(left)
			}
		},
	}
}

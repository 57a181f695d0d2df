// Timeline: run the same communication-bound ring application on a packed
// and an interleaved mapping and show the XMPI-style per-rank state
// timelines side by side — making the extra blocked time (".") of the bad
// mapping directly visible, the way the paper's profiling subsystem
// visualizes execution traces.
package main

import (
	"fmt"

	"cbes/internal/cluster"
	"cbes/internal/mpisim"
	"cbes/internal/vcluster"
	"cbes/internal/workloads"
)

func runWithTimeline(topo *cluster.Topology, prog workloads.Program, mapping []int) *mpisim.Result {
	opts := prog.Options()
	opts.RecordIntervals = true
	res, err := mpisim.RunAlone(topo, vcluster.Background{}, mapping, prog.Body, opts)
	if err != nil {
		panic(err)
	}
	return res
}

func main() {
	topo := cluster.NewOrangeGrove()
	// A communication-bound ring: each iteration exchanges two 48 KB
	// messages per rank with little computation between them.
	prog := workloads.Synthetic(workloads.SyntheticConfig{
		Ranks: 8, Iterations: 60, ComputePerIter: 0.015,
		MsgSize: 48 << 10, MsgsPerIter: 2,
	})
	intels := topo.NodesByArch(cluster.ArchIntel)
	east, west := intels[:6], intels[6:]

	// Packed: ring neighbors stay east of the federation link.
	good := append(append([]int{}, east...), west[:2]...)
	// Interleaved: every ring edge crosses the D-Link federation path.
	bad := []int{east[0], west[0], east[1], west[1], east[2], west[2], east[3], west[3]}

	fmt.Println("=== ring packed east of the D-Link federation path ===")
	resGood := runWithTimeline(topo, prog, good)
	fmt.Printf("elapsed %.1fs\n", resGood.Elapsed.Seconds())
	fmt.Print(resGood.Trace.RenderTimeline(96))

	fmt.Println()
	fmt.Println("=== ring interleaved across the federation path ===")
	resBad := runWithTimeline(topo, prog, bad)
	fmt.Printf("elapsed %.1fs\n", resBad.Elapsed.Seconds())
	fmt.Print(resBad.Trace.RenderTimeline(96))

	fmt.Println()
	fmt.Println("per-rank accounting of the interleaved run:")
	fmt.Print(resBad.Trace.Summary())

	d := resBad.Elapsed.Seconds() - resGood.Elapsed.Seconds()
	fmt.Printf("\ninterleaving across the limited-capacity link costs %.1fs (%.0f%%)\n",
		d, d/resBad.Elapsed.Seconds()*100)
}

package experiments

import (
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"cbes/internal/cluster"
	"cbes/internal/des"
	"cbes/internal/mpisim"
	"cbes/internal/simnet"
	"cbes/internal/vcluster"
	"cbes/internal/workloads"
)

// TopoScale is not part of the paper reproduction: it characterizes the
// simulator itself at 1k–5k-node scale on the structured topologies
// (fat tree, torus, dragonfly). For each spec it times topology
// construction, reports the route-memory mode and interned class count,
// and drives a seeded 2D-halo workload end to end, reporting simulated
// versus wall-clock time.

// TopoScaleRow is one topology's measurements.
type TopoScaleRow struct {
	Spec      string
	Nodes     int
	Switches  int
	Links     int
	Classes   int
	RouteMode string
	BuildMS   float64
	Ranks     int
	SimS      float64 // simulated seconds the workload took
	WallMS    float64 // wall-clock milliseconds the simulation took
	Messages  uint64
}

// TopoScaleResult aggregates the sweep.
type TopoScaleResult struct {
	Rows []TopoScaleRow
}

// TopoScale runs the scale characterization over the given topology specs
// (cluster.FromSpec grammar) with the given rank count (clamped to the
// node count of each topology).
func TopoScale(specs []string, ranks int, seed int64) (*TopoScaleResult, error) {
	if ranks <= 0 {
		ranks = 256
	}
	res := &TopoScaleResult{}
	for _, spec := range specs {
		t0 := time.Now()
		topo, err := cluster.FromSpec(spec)
		if err != nil {
			return nil, err
		}
		buildMS := float64(time.Since(t0).Nanoseconds()) / 1e6
		if topo.NumNodes() < 2 {
			return nil, fmt.Errorf("experiments: toposcale needs >= 2 nodes, %q has %d", spec, topo.NumNodes())
		}

		r := ranks
		if n := topo.NumNodes(); r > n {
			r = n
		}
		eng := des.NewEngine()
		vc := vcluster.New(eng, topo)
		net := simnet.New(eng, topo)
		mapping := seededMapping(topo.NumNodes(), r, seed)
		prog := workloads.Halo2D(workloads.Halo2DConfig{Ranks: r, Iterations: 3, MsgSize: 16 << 10, ComputePerIter: 0.002})
		t1 := time.Now()
		run := mpisim.Run(vc, net, mapping, prog.Body, prog.Options())
		eng.Shutdown()

		res.Rows = append(res.Rows, TopoScaleRow{
			Spec:      spec,
			Nodes:     topo.NumNodes(),
			Switches:  topo.NumSwitches(),
			Links:     topo.NumLinks(),
			Classes:   topo.NumClasses(),
			RouteMode: topo.RouteMemoryMode(),
			BuildMS:   buildMS,
			Ranks:     r,
			SimS:      run.Elapsed.Seconds(),
			WallMS:    float64(time.Since(t1).Nanoseconds()) / 1e6,
			Messages:  net.Messages(),
		})
	}
	return res, nil
}

// seededMapping spreads ranks over distinct nodes with a deterministic
// multiplicative-stride walk (no rand dependency: same seed, same walk).
func seededMapping(nodes, ranks int, seed int64) []int {
	stride := int(seed%int64(nodes-1)) + 1
	// Force the stride coprime with nodes so the walk covers all of them.
	for gcd(stride, nodes) != 1 {
		stride++
	}
	m := make([]int, ranks)
	at := int(seed) % nodes
	if at < 0 {
		at += nodes
	}
	for i := range m {
		m[i] = at
		at = (at + stride) % nodes
	}
	return m
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Render formats the sweep as a table.
func (r *TopoScaleResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Topology scale characterization (build + seeded halo2d run)\n")
	fmt.Fprintf(&sb, "%-24s %7s %7s %8s %8s %10s %9s %6s %9s %9s %9s\n",
		"spec", "nodes", "switch", "links", "classes", "routes", "build_ms", "ranks", "sim_s", "wall_ms", "msgs")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%-24s %7d %7d %8d %8d %10s %9.2f %6d %9.3f %9.1f %9d\n",
			row.Spec, row.Nodes, row.Switches, row.Links, row.Classes,
			row.RouteMode, row.BuildMS, row.Ranks, row.SimS, row.WallMS, row.Messages)
	}
	return sb.String()
}

// WriteCSV dumps the sweep rows.
func (r *TopoScaleResult) WriteCSV(dir string) error {
	var rows [][]string
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Spec, strconv.Itoa(row.Nodes),
			strconv.Itoa(row.Switches), strconv.Itoa(row.Links),
			strconv.Itoa(row.Classes), row.RouteMode, f(row.BuildMS),
			strconv.Itoa(row.Ranks), f(row.SimS), f(row.WallMS),
			strconv.FormatUint(row.Messages, 10)})
	}
	return writeCSV(filepath.Join(dir, "toposcale.csv"),
		[]string{"spec", "nodes", "switches", "links", "classes", "route_mode",
			"build_ms", "ranks", "sim_s", "wall_ms", "messages"}, rows)
}

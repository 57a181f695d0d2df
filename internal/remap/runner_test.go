package remap

import (
	"math"
	"testing"

	"cbes/internal/bench"
	"cbes/internal/cluster"
	"cbes/internal/core"
	"cbes/internal/des"
	"cbes/internal/monitor"
	"cbes/internal/mpisim"
	"cbes/internal/profile"
	"cbes/internal/simnet"
	"cbes/internal/vcluster"
	"cbes/internal/workloads"
)

func TestIterativeSegmentsComposeToFullRun(t *testing.T) {
	topo := cluster.NewOrangeGrove()
	spec := workloads.SMGIterative(50, 8)
	mapping := core.Mapping(topo.NodesByArch(cluster.ArchAlpha))
	cr := &ClusterRunner{Topo: topo, Spec: spec}

	full := cr.RunSegment(mapping, 0, spec.Iterations)
	half1 := cr.RunSegment(mapping, 0, spec.Iterations/2)
	half2 := cr.RunSegment(mapping, spec.Iterations/2, spec.Iterations)
	if rel := math.Abs(full-(half1+half2)) / full; rel > 0.02 {
		t.Fatalf("segments don't compose: full %.2f vs halves %.2f (%.1f%%)",
			full, half1+half2, rel*100)
	}
}

func TestIterativeProgramMatchesMonolithic(t *testing.T) {
	// The iterative smg2000 must behave like the monolithic smg2000 model.
	topo := cluster.NewOrangeGrove()
	alphas := topo.NodesByArch(cluster.ArchAlpha)
	runProg := func(p workloads.Program) float64 {
		eng := des.NewEngine()
		vc := vcluster.New(eng, topo)
		net := simnet.New(eng, topo)
		return mpisim.Run(vc, net, alphas, p.Body, p.Options()).Elapsed.Seconds()
	}
	mono := runProg(workloads.SMG2000(50, 8))
	iter := runProg(workloads.SMGIterative(50, 8).Program())
	if rel := math.Abs(mono-iter) / mono; rel > 1e-9 {
		t.Fatalf("iterative smg2000 diverges from monolithic: %.3f vs %.3f", iter, mono)
	}
}

func TestSegmentValidation(t *testing.T) {
	spec := workloads.SMGIterative(50, 8)
	for _, bad := range [][2]int{{-1, 5}, {5, 5}, {7, 3}, {0, spec.Iterations + 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Segment(%d,%d) should panic", bad[0], bad[1])
				}
			}()
			spec.Segment(bad[0], bad[1])
		}()
	}
	// Full-range segment keeps the plain name (profiles match).
	if got := spec.Segment(0, spec.Iterations).Name; got != spec.Name {
		t.Fatalf("full segment name = %q", got)
	}
	if got := spec.Segment(1, 3).Name; got == spec.Name {
		t.Fatal("partial segment should have a derived name")
	}
}

func TestEndToEndRemapWithRealWorkload(t *testing.T) {
	// Full pipeline: profile the iterative smg2000, load half its nodes,
	// and verify the executor migrates and wins versus staying.
	topo := cluster.NewOrangeGrove()
	model := bench.Calibrate(topo, bench.Options{Reps: 3})
	spec := workloads.SMGIterative(50, 8)
	prog := spec.Program()
	alphas := topo.NodesByArch(cluster.ArchAlpha)
	intels := topo.NodesByArch(cluster.ArchIntel)

	eng := des.NewEngine()
	vc := vcluster.New(eng, topo)
	net := simnet.New(eng, topo)
	res := mpisim.Run(vc, net, alphas, prog.Body, prog.Options())
	speeds := bench.MeasureArchSpeeds(topo, prog.ArchEff, 0.3)
	prof, err := profile.FromTrace(res.Trace, topo, speeds)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := core.NewEvaluator(topo, model, prof)
	if err != nil {
		t.Fatal(err)
	}

	load := map[int]float64{alphas[0]: 0.3, alphas[1]: 0.3, alphas[2]: 0.3}
	pool := append(append([]int{}, alphas...), intels...)
	cr := &ClusterRunner{Topo: topo, Spec: spec, Load: load}
	snap := func() *monitor.Snapshot {
		s := monitor.IdleSnapshot(topo.NumNodes())
		for n, a := range load {
			s.AvailCPU[n] = a
		}
		return s
	}
	adv := &Advisor{Eval: eval, Pool: pool, MigrationCost: 2}

	moved, err := Execute(cr, core.Mapping(alphas), adv, 4, snap, 3)
	if err != nil {
		t.Fatal(err)
	}
	stayAdv := &Advisor{Eval: eval, Pool: pool, MigrationCost: 1e12}
	stayed, err := Execute(cr, core.Mapping(alphas), stayAdv, 4, snap, 3)
	if err != nil {
		t.Fatal(err)
	}
	if moved.Remaps == 0 {
		t.Fatal("executor never migrated off the loaded Alphas")
	}
	if moved.TotalTime >= stayed.TotalTime {
		t.Fatalf("migration (%0.1fs) did not beat staying (%0.1fs)",
			moved.TotalTime, stayed.TotalTime)
	}
	t.Logf("stay %.1fs vs remap %.1fs (%d moves)", stayed.TotalTime, moved.TotalTime, moved.Remaps)
}

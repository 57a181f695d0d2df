package cbes

import (
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"cbes/internal/bench"
	"cbes/internal/cluster"
	"cbes/internal/core"
	"cbes/internal/des"
	"cbes/internal/mpisim"
	"cbes/internal/workloads"
)

func newSystem(t *testing.T) *System {
	t.Helper()
	sys := NewSystem(cluster.NewTestTopology(), Config{})
	sys.Calibrate(bench.Options{Reps: 3})
	return sys
}

func smallProg() workloads.Program {
	return workloads.Synthetic(workloads.SyntheticConfig{
		Ranks: 4, Iterations: 10, ComputePerIter: 0.05,
		MsgSize: 16 << 10, MsgsPerIter: 2,
	})
}

func TestSystemLifecycle(t *testing.T) {
	sys := newSystem(t)
	defer sys.Close()
	prog := smallProg()
	if _, err := sys.Profile(prog, []int{0, 1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if apps := sys.Apps(); len(apps) != 1 || apps[0] != prog.Name {
		t.Fatalf("apps = %v", sys.Apps())
	}

	pred, err := sys.Predict(prog.Name, core.Mapping{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	res := sys.Run(prog, core.Mapping{0, 1, 2, 3})
	actual := res.Elapsed.Seconds()
	if e := math.Abs(pred.Seconds-actual) / actual; e > 0.05 {
		t.Fatalf("prediction error %.1f%% (pred %v actual %v)", e*100, pred.Seconds, actual)
	}
}

func TestProfileRequiresCalibration(t *testing.T) {
	sys := NewSystem(cluster.NewTestTopology(), Config{})
	defer sys.Close()
	if _, err := sys.Profile(smallProg(), []int{0, 1, 2, 3}); err == nil {
		t.Fatal("profiling before calibration should fail")
	}
}

func TestProfileMappingSizeChecked(t *testing.T) {
	sys := newSystem(t)
	defer sys.Close()
	if _, err := sys.Profile(smallProg(), []int{0, 1}); err == nil {
		t.Fatal("wrong mapping size should fail")
	}
}

func TestScheduleAlgorithms(t *testing.T) {
	sys := newSystem(t)
	defer sys.Close()
	prog := smallProg()
	sys.MustProfile(prog, []int{0, 1, 2, 3})
	pool := sys.Pool(cluster.ArchAlpha, cluster.ArchIntel)
	if len(pool) != 8 {
		t.Fatalf("pool = %v", pool)
	}
	for _, alg := range []Algorithm{AlgCS, AlgNCS, AlgRS, AlgGA} {
		d, err := sys.Schedule(prog.Name, alg, pool, 1)
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		if err := d.Mapping.Validate(sys.Topo); err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
	}
	if _, err := sys.Schedule(prog.Name, Algorithm("bogus"), pool, 1); err == nil {
		t.Fatal("unknown algorithm should fail")
	}
	if _, err := sys.Schedule("ghost", AlgCS, pool, 1); err == nil {
		t.Fatal("unregistered app should fail")
	}
}

func TestScheduleThenRunImproves(t *testing.T) {
	sys := newSystem(t)
	defer sys.Close()
	prog := smallProg()
	sys.MustProfile(prog, []int{0, 1, 2, 3})
	pool := sys.Pool(cluster.ArchAlpha, cluster.ArchIntel)

	cs, err := sys.Schedule(prog.Name, AlgCS, pool, 7)
	if err != nil {
		t.Fatal(err)
	}
	// A deliberately bad mapping: slow Intel nodes.
	bad := core.Mapping{4, 5, 6, 7}
	good := sys.Run(prog, cs.Mapping)
	worse := sys.Run(prog, bad)
	if good.Elapsed >= worse.Elapsed {
		t.Fatalf("scheduled mapping %v not faster than bad mapping %v", good.Elapsed, worse.Elapsed)
	}
}

func TestAdvanceAndMonitoring(t *testing.T) {
	sys := newSystem(t)
	defer sys.Close()
	sys.Eng.Schedule(des.Second, func() { sys.VC.SetAvailability(2, 0.5) })
	sys.Advance(10 * des.Second)
	snap := sys.Snapshot()
	if math.Abs(snap.AvailCPU[2]-0.5) > 0.05 {
		t.Fatalf("monitor did not track load: %v", snap.AvailCPU[2])
	}
	if sys.Eng.Now() != 10*des.Second {
		t.Fatalf("Advance did not move time: %v", sys.Eng.Now())
	}
}

func TestUseModelRoundTrip(t *testing.T) {
	sys := newSystem(t)
	defer sys.Close()
	model := sys.Model
	sys2 := NewSystem(cluster.NewTestTopology(), Config{})
	defer sys2.Close()
	if err := sys2.UseModel(model); err != nil {
		t.Fatal(err)
	}
	sys3 := NewSystem(cluster.NewOrangeGrove(), Config{})
	defer sys3.Close()
	if err := sys3.UseModel(model); err == nil {
		t.Fatal("model should not attach to a different cluster")
	}
}

// TestNewModelDropsEvaluators: an evaluator holds its model and the λs
// derived from it, so installing another model, by UseModel or by
// Calibrate, must not leave Evaluator serving the old one.
func TestNewModelDropsEvaluators(t *testing.T) {
	sys := newSystem(t)
	defer sys.Close()
	prog := smallProg()
	prof := sys.MustProfile(prog, []int{0, 1, 2, 3})
	m := core.Mapping{0, 4, 1, 5}
	if _, err := sys.Predict(prog.Name, m); err != nil { // caches the evaluator
		t.Fatal(err)
	}
	other := bench.Calibrate(sys.Topo, bench.Options{Reps: 2, Sizes: []int64{64, 4 << 10}})
	if err := sys.UseModel(other); err != nil {
		t.Fatal(err)
	}
	e, err := sys.Evaluator(prog.Name)
	if err != nil {
		t.Fatal(err)
	}
	if e.Model != other {
		t.Fatal("Evaluator kept the model UseModel replaced")
	}
	fresh, err := core.NewEvaluator(sys.Topo, other, prof)
	if err != nil {
		t.Fatal(err)
	}
	snap := sys.Snapshot()
	got, err := e.Predict(m, snap)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := fresh.Predict(m, snap)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after UseModel: Predict %+v, fresh evaluator %+v", got, want)
	}
	calibrated := sys.Calibrate(bench.Options{Reps: 3})
	if e, err := sys.Evaluator(prog.Name); err != nil || e.Model != calibrated {
		t.Fatalf("Evaluator after Calibrate: err %v, kept the replaced model %v", err, e.Model != calibrated)
	}
}

func TestProfileDoesNotLeakGoroutines(t *testing.T) {
	// Regression: Profile used to spin up a throwaway DES engine and never
	// shut it down, leaking the goroutines of any simulated process still
	// parked on it on every profiling call. A rank body can no longer start
	// a process that outlives its world, so this checks the plain case:
	// repeated profiling runs leave the goroutine count where it was.
	sys := newSystem(t)
	defer sys.Close()
	prog := workloads.Program{
		Name:  "plain",
		Ranks: 4,
		Body: func(r *mpisim.Rank) {
			r.Compute(0.05)
			r.Allreduce(1024, 0.001)
		},
	}
	settled := func() int {
		n := runtime.NumGoroutine()
		for i := 0; i < 50; i++ {
			time.Sleep(2 * time.Millisecond)
			runtime.Gosched()
			if m := runtime.NumGoroutine(); m <= n {
				n = m
			}
		}
		return n
	}
	sys.MustProfile(prog, []int{0, 1, 2, 3}) // warm any lazy infrastructure
	before := settled()
	const rounds = 5
	for i := 0; i < rounds; i++ {
		sys.MustProfile(prog, []int{0, 1, 2, 3})
	}
	after := settled()
	// A leaking profiling engine pins at least one goroutine per run;
	// allow a little scheduler noise below that.
	if after >= before+rounds {
		t.Fatalf("goroutines grew %d -> %d across %d profiling runs", before, after, rounds)
	}
}

package faults

import (
	"reflect"
	"testing"

	"cbes/internal/cluster"
	"cbes/internal/des"
	"cbes/internal/monitor"
	"cbes/internal/simnet"
	"cbes/internal/vcluster"
)

type env struct {
	eng *des.Engine
	vc  *vcluster.Cluster
	net *simnet.Network
	mon *monitor.SystemMonitor
	in  *Injector
}

func newEnv(t *testing.T) *env {
	t.Helper()
	eng := des.NewEngine()
	t.Cleanup(eng.Shutdown)
	topo := cluster.NewTestTopology()
	vc := vcluster.New(eng, topo)
	net := simnet.New(eng, topo)
	mon := monitor.NewSystemMonitor(vc, net, monitor.Config{Noise: monitor.NoNoise})
	return &env{eng: eng, vc: vc, net: net, mon: mon, in: NewInjector(vc, net, mon)}
}

func TestInjectorAppliesEveryKind(t *testing.T) {
	e := newEnv(t)
	sched := Schedule{
		{At: 2 * des.Second, Kind: NodeCrash, Node: 1},
		{At: 3 * des.Second, Kind: LinkDegrade, Link: 0, Factor: 0.25},
		{At: 4 * des.Second, Kind: SensorDrop, Node: 2},
		{At: 5 * des.Second, Kind: MonitorStall, Duration: 3 * des.Second},
		{At: 20 * des.Second, Kind: NodeRecover, Node: 1},
		{At: 20 * des.Second, Kind: LinkRestore, Link: 0},
		{At: 20 * des.Second, Kind: SensorRestore, Node: 2},
	}
	if err := e.in.Install(sched); err != nil {
		t.Fatal(err)
	}

	// probe times one 1 MB message from a switch-A node to a switch-B
	// node, across link 0 (the test topology's inter-switch uplink), on an
	// otherwise idle network; one simulated second covers its delivery.
	const size = 1 << 20
	nominal := e.net.EstimateNoLoad(0, 4, size)
	probe := func() des.Time {
		var took des.Time
		start := e.eng.Now()
		e.net.Deliver(0, 4, size, func() { took = e.eng.Now() - start })
		e.eng.RunUntil(start + des.Second)
		return took
	}

	e.eng.RunUntil(10 * des.Second)
	if !e.vc.Down(1) {
		t.Fatal("node 1 should be down after NodeCrash")
	}
	snap := e.mon.Snapshot()
	if snap.HealthOf(1) != monitor.HealthDown {
		t.Fatalf("crashed node health = %v, want down", snap.HealthOf(1))
	}
	if snap.HealthOf(2) != monitor.HealthDown {
		t.Fatalf("sensor-dropped node health = %v, want down", snap.HealthOf(2))
	}
	if e.in.Injected() != 4 {
		t.Fatalf("injected = %d, want 4 by t=10s", e.in.Injected())
	}
	if got := probe(); got <= 3*nominal/2 {
		t.Fatalf("delivery over degraded link 0 took %v, want well over nominal %v", got, nominal)
	}

	e.eng.RunUntil(30 * des.Second)
	if e.vc.Down(1) {
		t.Fatal("node 1 should have recovered")
	}
	snap = e.mon.Snapshot()
	for i := 0; i < 8; i++ {
		if snap.HealthOf(i) != monitor.HealthOK {
			t.Fatalf("node %d health = %v after full recovery", i, snap.HealthOf(i))
		}
	}
	if got := probe(); got != nominal {
		t.Fatalf("delivery over restored link 0 took %v, want nominal %v", got, nominal)
	}
	if e.in.Injected() != len(sched) {
		t.Fatalf("injected = %d, want all %d", e.in.Injected(), len(sched))
	}
}

func TestMonitorStallFreezesSampling(t *testing.T) {
	e := newEnv(t)
	if err := e.in.Install(Schedule{{At: 5 * des.Second, Kind: MonitorStall, Duration: 10 * des.Second}}); err != nil {
		t.Fatal(err)
	}
	e.eng.RunUntil(5 * des.Second)
	before := e.mon.Samples()
	e.eng.RunUntil(14 * des.Second)
	if got := e.mon.Samples(); got != before {
		t.Fatalf("samples advanced during stall: %d -> %d", before, got)
	}
	// Stale data must surface as suspect health once past the TTL.
	if snap := e.mon.Snapshot(); snap.HealthOf(0) != monitor.HealthSuspect {
		t.Fatalf("health during stall = %v, want suspect", snap.HealthOf(0))
	}
	e.eng.RunUntil(20 * des.Second)
	if got := e.mon.Samples(); got <= before {
		t.Fatal("sampling did not resume after stall")
	}
	if snap := e.mon.Snapshot(); snap.HealthOf(0) != monitor.HealthOK {
		t.Fatal("health did not recover after stall ended")
	}
}

func TestInstallRejectsBadFaults(t *testing.T) {
	e := newEnv(t)
	bad := []Fault{
		{Kind: NodeCrash, Node: -1},
		{Kind: NodeRecover, Node: 99},
		{Kind: LinkDegrade, Link: -1},
		{Kind: LinkRestore, Link: 10_000},
		{Kind: MonitorStall, Duration: 0},
		{Kind: Kind(42)},
	}
	for _, f := range bad {
		if err := e.in.Install(Schedule{f}); err == nil {
			t.Fatalf("Install accepted invalid fault %+v", f)
		}
	}
	// Sensor faults and stalls need a monitor.
	nomon := NewInjector(e.vc, e.net, nil)
	if err := nomon.Install(Schedule{{At: des.Second, Kind: SensorDrop, Node: 0}}); err == nil {
		t.Fatal("SensorDrop without monitor should fail")
	}
	if err := nomon.Install(Schedule{{At: des.Second, Kind: MonitorStall, Duration: des.Second}}); err == nil {
		t.Fatal("MonitorStall without monitor should fail")
	}
}

func TestRandomScheduleReproducible(t *testing.T) {
	topo := cluster.NewTestTopology()
	cfg := RandomConfig{Seed: 7, Horizon: 120 * des.Second, Crashes: 2, Degrades: 2, SensorDrops: 1, Stalls: 1}
	a := RandomSchedule(topo, cfg)
	b := RandomSchedule(topo, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	if len(a) != 2*2+2*2+2*1+1 {
		t.Fatalf("schedule has %d faults, want 11", len(a))
	}
	for i, f := range a {
		if f.At <= 0 || f.At > cfg.Horizon {
			t.Fatalf("fault %d at %v outside (0, horizon]", i, f.At)
		}
		if i > 0 && a[i-1].At > f.At {
			t.Fatalf("schedule not sorted at %d", i)
		}
	}
	if c := RandomSchedule(topo, RandomConfig{Seed: 8, Horizon: 120 * des.Second, Crashes: 2}); reflect.DeepEqual(a[:4], c[:4]) {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestInjectorDeterminism pins the subsystem's core contract: the same
// topology, config, and seeded schedule replayed on two independent systems
// yield byte-identical monitor snapshots at every observation point.
func TestInjectorDeterminism(t *testing.T) {
	run := func() []*monitor.Snapshot {
		eng := des.NewEngine()
		defer eng.Shutdown()
		topo := cluster.NewTestTopology()
		vc := vcluster.New(eng, topo)
		net := simnet.New(eng, topo)
		mon := monitor.NewSystemMonitor(vc, net, monitor.Config{Noise: monitor.NoNoise})
		in := NewInjector(vc, net, mon)
		sched := RandomSchedule(topo, RandomConfig{
			Seed: 42, Horizon: 60 * des.Second,
			Crashes: 2, Degrades: 1, SensorDrops: 1, Stalls: 1,
		})
		if err := in.Install(sched); err != nil {
			t.Fatal(err)
		}
		var snaps []*monitor.Snapshot
		for ts := 10 * des.Second; ts <= 70*des.Second; ts += 10 * des.Second {
			eng.RunUntil(ts)
			snaps = append(snaps, mon.Snapshot())
		}
		return snaps
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical fault schedules produced divergent snapshots")
	}
	// The schedule must actually have disturbed the system: at least one
	// observation point saw a non-OK node.
	disturbed := false
	for _, s := range a {
		if ok, suspect, down := s.HealthCounts(); suspect > 0 || down > 0 || ok < len(s.AvailCPU) {
			disturbed = true
		}
	}
	if !disturbed {
		t.Fatal("fault schedule left no observable trace")
	}
}

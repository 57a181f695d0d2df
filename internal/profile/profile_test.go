package profile_test

import (
	"bytes"
	"math"
	"testing"

	"cbes/internal/bench"
	"cbes/internal/cluster"
	"cbes/internal/des"
	"cbes/internal/mpisim"
	"cbes/internal/profile"
	"cbes/internal/simnet"
	"cbes/internal/trace"
	"cbes/internal/vcluster"
)

// runTestApp executes a small two-phase app and returns its trace.
func runTestApp(t *testing.T, topo *cluster.Topology, mapping []int) *trace.Trace {
	t.Helper()
	eng := des.NewEngine()
	vc := vcluster.New(eng, topo)
	net := simnet.New(eng, topo)
	res := mpisim.Run(vc, net, mapping, func(r *mpisim.Rank) {
		r.Compute(0.2)
		for i := 0; i < 10; i++ {
			if r.ID() == 0 {
				r.Send(1, 4096)
				r.Recv(1)
			} else {
				r.Recv(0)
				r.Send(0, 4096)
			}
			r.Compute(0.01)
		}
	}, mpisim.Options{AppName: "profiled"})
	return res.Trace
}

func TestFromTraceBasics(t *testing.T) {
	topo := cluster.NewTestTopology()
	tr := runTestApp(t, topo, []int{0, 1})
	speeds := bench.MeasureArchSpeeds(topo, nil, 0.2)
	p, err := profile.FromTrace(tr, topo, speeds)
	if err != nil {
		t.Fatal(err)
	}
	if p.App != "profiled" || len(p.Mapping) != 2 || p.Mapping[1] != 1 {
		t.Fatalf("header: %+v", p)
	}
	pp := p.Segments[0].Procs[0]
	// 0.2 + 10*0.01 = 0.3 ref-seconds on an Alpha (speed 1) at idle.
	if math.Abs(pp.X-0.3) > 1e-3 {
		t.Fatalf("X = %v, want ≈0.3", pp.X)
	}
	if pp.O <= 0 || pp.B <= 0 {
		t.Fatalf("O = %v, B = %v must be positive", pp.O, pp.B)
	}
	if len(pp.Sends) != 1 || pp.Sends[0].Count != 10 || pp.Sends[0].Size != 4096 {
		t.Fatalf("send groups: %+v", pp.Sends)
	}
	if math.Abs(p.ArchSpeed[cluster.ArchAlpha]-1.0) > 1e-6 {
		t.Fatalf("alpha speed %v, want ≈1", p.ArchSpeed[cluster.ArchAlpha])
	}
}

// TestFromTraceRejectsMisplacedProcess: a process record on another node
// than the trace's mapping gives its rank is an error. Accepting it would
// leave the profile with two profiling nodes for one rank: the record's,
// and the mapping's that λ and Speed_profile are derived on.
func TestFromTraceRejectsMisplacedProcess(t *testing.T) {
	topo := cluster.NewTestTopology()
	tr := runTestApp(t, topo, []int{0, 1})
	speeds := bench.MeasureArchSpeeds(topo, nil, 0.2)
	tr.Segments[0].Procs[0].Node = 4 // an Intel node; the mapping says Alpha node 0
	if _, err := profile.FromTrace(tr, topo, speeds); err == nil {
		t.Fatal("a process record off its mapped node was accepted")
	}
}

func TestFromTraceRejectsWrongCluster(t *testing.T) {
	topo := cluster.NewTestTopology()
	tr := runTestApp(t, topo, []int{0, 1})
	if _, err := profile.FromTrace(tr, cluster.NewOrangeGrove(), map[cluster.Arch]float64{}); err == nil {
		t.Fatal("expected cluster mismatch error")
	}
	// Missing arch speed must error too, as must a zero one.
	if _, err := profile.FromTrace(tr, topo, map[cluster.Arch]float64{}); err == nil {
		t.Fatal("expected missing arch speed error")
	}
	if _, err := profile.FromTrace(tr, topo, map[cluster.Arch]float64{cluster.ArchAlpha: 0}); err == nil {
		t.Fatal("expected zero arch speed error")
	}
}

func TestThetaMappingSensitivity(t *testing.T) {
	topo := cluster.NewTestTopology()
	model := bench.Calibrate(topo, bench.Options{Reps: 5, SkipLoadFit: true})
	tr := runTestApp(t, topo, []int{0, 1})
	speeds := bench.MeasureArchSpeeds(topo, nil, 0.2)
	p, _ := profile.FromTrace(tr, topo, speeds)
	pp := &p.Segments[0].Procs[0]
	sameSwitch := profile.Theta(pp, []int{0, 1}, model.NoLoad)
	crossSwitch := profile.Theta(pp, []int{0, 4}, model.NoLoad)
	if crossSwitch <= sameSwitch {
		t.Fatalf("Θ cross-switch (%v) must exceed same-switch (%v)", crossSwitch, sameSwitch)
	}
}

func TestCommFraction(t *testing.T) {
	topo := cluster.NewTestTopology()
	tr := runTestApp(t, topo, []int{0, 1})
	speeds := bench.MeasureArchSpeeds(topo, nil, 0.2)
	p, _ := profile.FromTrace(tr, topo, speeds)
	f := p.CommFraction()
	if f <= 0 || f >= 1 {
		t.Fatalf("comm fraction = %v, want in (0,1)", f)
	}
	// A program that never communicates spends no time blocked.
	eng := des.NewEngine()
	res := mpisim.Run(vcluster.New(eng, topo), simnet.New(eng, topo), []int{0, 1}, func(r *mpisim.Rank) { r.Compute(0.1) }, mpisim.Options{})
	eng.Shutdown()
	q, err := profile.FromTrace(res.Trace, topo, speeds)
	if err != nil {
		t.Fatal(err)
	}
	if f := q.CommFraction(); f != 0 {
		t.Fatalf("comm fraction = %v for a non-communicating program", f)
	}
}

func TestEncodeDecode(t *testing.T) {
	topo := cluster.NewTestTopology()
	tr := runTestApp(t, topo, []int{0, 1})
	speeds := bench.MeasureArchSpeeds(topo, nil, 0.2)
	p, _ := profile.FromTrace(tr, topo, speeds)
	var buf bytes.Buffer
	if err := p.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := profile.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.App != p.App || len(q.Segments) != len(p.Segments) {
		t.Fatalf("round trip: %+v", q)
	}
	if q.ArchSpeed[cluster.ArchAlpha] != p.ArchSpeed[cluster.ArchAlpha] {
		t.Fatal("arch speeds lost")
	}
	if _, err := profile.Decode(bytes.NewBufferString("]")); err == nil {
		t.Fatal("expected decode error")
	}
}

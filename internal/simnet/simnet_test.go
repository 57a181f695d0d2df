package simnet

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"cbes/internal/cluster"
	"cbes/internal/des"
)

func newNet() (*des.Engine, *Network) {
	eng := des.NewEngine()
	return eng, New(eng, cluster.NewTestTopology())
}

func TestDeliverSameSwitch(t *testing.T) {
	eng, net := newNet()
	var at des.Time
	eng.Schedule(0, func() {
		net.Deliver(0, 1, 1000, func() { at = eng.Now() })
	})
	eng.Run()
	want := net.EstimateNoLoad(0, 1, 1000)
	if at != want {
		t.Fatalf("delivery at %v, want %v (no contention => estimate exact)", at, want)
	}
	// 2 hops of (1000B / 12.5MB/s + 5 µs) = 2*(80+5) µs = 170 µs.
	if got := at.Seconds(); math.Abs(got-170e-6) > 1e-9 {
		t.Fatalf("same-switch latency = %v, want 170µs", got)
	}
}

func TestDeliverCrossSwitchSlower(t *testing.T) {
	_, net := newNet()
	same := net.EstimateNoLoad(0, 1, 1000)
	cross := net.EstimateNoLoad(0, 4, 1000)
	if cross <= same {
		t.Fatalf("cross-switch (%v) should exceed same-switch (%v)", cross, same)
	}
}

func TestLoopback(t *testing.T) {
	eng, net := newNet()
	var at des.Time
	eng.Schedule(0, func() { net.Deliver(3, 3, 1<<20, func() { at = eng.Now() }) })
	eng.Run()
	if at <= 0 || at > des.Millisecond*10 {
		t.Fatalf("loopback delivery at %v", at)
	}
	cross := net.EstimateNoLoad(3, 4, 1<<20)
	if at >= cross {
		t.Fatalf("loopback (%v) should beat the network (%v)", at, cross)
	}
}

func TestFIFOContentionSerializes(t *testing.T) {
	// Two messages from the same node back-to-back share its edge link:
	// the second must queue behind the first.
	eng, net := newNet()
	var t1, t2 des.Time
	eng.Schedule(0, func() {
		net.Deliver(0, 1, 100000, func() { t1 = eng.Now() })
		net.Deliver(0, 2, 100000, func() { t2 = eng.Now() })
	})
	eng.Run()
	solo := net.EstimateNoLoad(0, 2, 100000)
	if t2 <= solo {
		t.Fatalf("contended delivery %v not delayed past solo %v", t2, solo)
	}
	if t1 == 0 || t2 <= t1 {
		t.Fatalf("deliveries out of order: %v then %v", t1, t2)
	}
	// The extra delay is one transmission time of the shared first hop.
	tx := des.FromSeconds(100000 / cluster.BandwidthFast100)
	want := solo + tx
	if d := (t2 - want).Seconds(); math.Abs(d) > 1e-9 {
		t.Fatalf("contended delivery = %v, want %v", t2, want)
	}
}

func TestOppositeDirectionsDoNotContend(t *testing.T) {
	// Full duplex: A->B and B->A simultaneously both arrive at solo time.
	eng, net := newNet()
	var t1, t2 des.Time
	eng.Schedule(0, func() {
		net.Deliver(0, 1, 100000, func() { t1 = eng.Now() })
		net.Deliver(1, 0, 100000, func() { t2 = eng.Now() })
	})
	eng.Run()
	solo := net.EstimateNoLoad(0, 1, 100000)
	if t1 != solo || t2 != solo {
		t.Fatalf("duplex deliveries %v, %v, want both %v", t1, t2, solo)
	}
}

func TestSharedUplinkContention(t *testing.T) {
	// Messages 0->4 and 1->5 share the swA-swB uplink.
	eng, net := newNet()
	var t2 des.Time
	eng.Schedule(0, func() {
		net.Deliver(0, 4, 200000, func() {})
		net.Deliver(1, 5, 200000, func() { t2 = eng.Now() })
	})
	eng.Run()
	solo := net.EstimateNoLoad(1, 5, 200000)
	if t2 <= solo {
		t.Fatalf("uplink contention not observed: %v <= %v", t2, solo)
	}
}

func TestCountersAccumulate(t *testing.T) {
	eng, net := newNet()
	eng.Schedule(0, func() {
		net.Deliver(0, 1, 500, func() {})
		net.Deliver(2, 3, 700, func() {})
	})
	eng.Run()
	if net.Messages() != 2 {
		t.Fatalf("messages = %d, want 2", net.Messages())
	}
	if net.Bytes() != 1200 {
		t.Fatalf("bytes = %d, want 1200", net.Bytes())
	}
	if net.LinkBusy(net.EdgeLink(0)) <= 0 {
		t.Fatal("edge link of node 0 shows no busy time")
	}
}

func TestEdgeLink(t *testing.T) {
	_, net := newNet()
	for id := 0; id < net.topo.NumNodes(); id++ {
		lid := net.EdgeLink(id)
		if lid < 0 {
			t.Fatalf("node %d has no edge link", id)
		}
		l := net.topo.Link(lid)
		dev := cluster.Device{Kind: cluster.DevNode, Index: id}
		if l.A != dev && l.B != dev {
			t.Fatalf("edge link %d does not touch node %d", lid, id)
		}
	}
}

// TestLinkStateOnFirstTouch: a network holds state only for the links its
// messages crossed or its faults degraded; untouched links read idle and
// healthy without allocating, and restoring one creates nothing.
func TestLinkStateOnFirstTouch(t *testing.T) {
	eng := des.NewEngine()
	topo := cluster.NewFatTree(cluster.FatTreeSpec{K: 8}) // 128 nodes, 384 links
	net := New(eng, topo)
	var path []int
	eng.Schedule(0, func() {
		net.Deliver(0, topo.NumNodes()-1, 4096, func() {})
		path = topo.Path(0, topo.NumNodes()-1)
	})
	eng.Run()
	if got, want := net.nrows, len(path); got != want {
		t.Fatalf("%d link state rows after one %d-hop message", got, want)
	}
	for _, lid := range path {
		if net.LinkBusy(lid) <= 0 {
			t.Fatalf("link %d on the route shows no busy time", lid)
		}
	}
	untouched := topo.EdgeLink(1)
	if net.slot[untouched] != 0 {
		t.Fatalf("node 1's NIC link %d should be off the route", untouched)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if net.LinkBusy(untouched) != 0 || linkScale(net, untouched) != 1 {
			t.Fatal("untouched link is not idle and healthy")
		}
		net.RestoreLink(untouched)
	})
	if allocs != 0 || net.nrows != len(path) {
		t.Fatalf("reading an untouched link allocated %.0f times and left %d rows", allocs, net.nrows)
	}
	net.DegradeLink(untouched, 0.5)
	if net.nrows != len(path)+1 || linkScale(net, untouched) != 0.5 {
		t.Fatal("degrading an untouched link did not give it state")
	}
	eng.Shutdown()
}

// Property: no-load estimate is monotonically nondecreasing in message size
// and positive for distinct nodes.
func TestQuickEstimateMonotonic(t *testing.T) {
	_, net := newNet()
	prop := func(a, b uint8, s1, s2 uint32) bool {
		i, j := int(a)%8, int(b)%8
		if i == j {
			return true
		}
		lo, hi := int64(s1%1e6), int64(s2%1e6)
		if lo > hi {
			lo, hi = hi, lo
		}
		el, eh := net.EstimateNoLoad(i, j, lo), net.EstimateNoLoad(i, j, hi)
		return el > 0 && el <= eh
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: simulated delivery time is never earlier than the no-load
// estimate (contention only adds delay), for any burst of messages.
func TestQuickDeliveryLowerBound(t *testing.T) {
	prop := func(seed int64) bool {
		eng, net := newNet()
		type rec struct {
			src, dst int
			size     int64
			estimate des.Time
			arrived  des.Time
		}
		rng := rand.New(rand.NewSource(seed))
		var recs []*rec
		eng.Schedule(0, func() {
			for k := 0; k < 10; k++ {
				r := &rec{src: rng.Intn(8), dst: rng.Intn(8), size: int64(rng.Intn(100000))}
				r.estimate = net.EstimateNoLoad(r.src, r.dst, r.size)
				recs = append(recs, r)
				rr := r
				net.Deliver(r.src, r.dst, r.size, func() { rr.arrived = eng.Now() })
			}
		})
		eng.Run()
		for _, r := range recs {
			if r.arrived < r.estimate {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDeliver(b *testing.B) {
	eng, net := newNet()
	done := 0
	eng.Schedule(0, func() {
		for i := 0; i < b.N; i++ {
			net.Deliver(i%8, (i+3)%8, 1024, func() { done++ })
		}
	})
	eng.Run()
	if done != b.N {
		b.Fatal("lost deliveries")
	}
}

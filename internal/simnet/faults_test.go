package simnet

import (
	"testing"

	"cbes/internal/des"
)

// linkScale reports link id's current bandwidth scale (1 = healthy).
func linkScale(n *Network, id int) float64 {
	if r := n.touched(id); r != nil {
		return r.scale
	}
	return 1
}

// deliverAt measures when a single message from src to dst completes,
// starting from an otherwise idle network.
func deliverAt(net *Network, eng *des.Engine, src, dst int, size int64) des.Time {
	var at des.Time
	start := eng.Now()
	eng.Schedule(0, func() { net.Deliver(src, dst, size, func() { at = eng.Now() }) })
	eng.Run()
	return at - start
}

func TestDegradeLinkSlowsDelivery(t *testing.T) {
	eng, net := newNet()
	base := deliverAt(net, eng, 0, 4, 1<<20) // cross-switch: uses several links

	eng2, net2 := newNet()
	for id := 0; id < net2.topo.NumLinks(); id++ {
		net2.DegradeLink(id, 0.5)
	}
	slow := deliverAt(net2, eng2, 0, 4, 1<<20)
	if slow <= base {
		t.Fatalf("degraded delivery %v not slower than nominal %v", slow, base)
	}
	// Halving bandwidth on every hop should roughly double the serialization
	// component; the total must stay within 2x + per-hop latencies.
	if slow >= 3*base {
		t.Fatalf("degraded delivery %v implausibly slow vs nominal %v", slow, base)
	}

	for id := 0; id < net2.topo.NumLinks(); id++ {
		net2.RestoreLink(id)
	}
	restored := deliverAt(net2, eng2, 0, 4, 1<<20)
	if restored != base {
		t.Fatalf("restored delivery %v, want nominal %v", restored, base)
	}
	eng.Shutdown()
	eng2.Shutdown()
}

func TestDegradeLinkClamps(t *testing.T) {
	_, net := newNet()
	net.DegradeLink(0, 0) // zero bandwidth would hang the sim forever
	if got := linkScale(net, 0); got != minBandwidthScale {
		t.Fatalf("scale after Degrade(0) = %v, want floor %v", got, minBandwidthScale)
	}
	net.DegradeLink(0, 7.5) // "degrading" above nominal is a restore
	if got := linkScale(net, 0); got != 1 {
		t.Fatalf("scale after Degrade(7.5) = %v, want 1", got)
	}
	net.DegradeLink(0, 0.3)
	if got := linkScale(net, 0); got != 0.3 {
		t.Fatalf("scale = %v, want 0.3", got)
	}
	net.RestoreLink(0)
	if got := linkScale(net, 0); got != 1 {
		t.Fatalf("restored scale = %v, want 1", got)
	}
}

package cluster

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cbes/internal/des"
)

func TestCenturionShape(t *testing.T) {
	c := NewCenturion()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := c.NumNodes(); got != 128 {
		t.Fatalf("Centurion has %d nodes, want 128", got)
	}
	if got := len(c.NodesByArch(ArchAlpha)); got != 32 {
		t.Fatalf("Centurion has %d Alphas, want 32", got)
	}
	if got := len(c.NodesByArch(ArchIntel)); got != 96 {
		t.Fatalf("Centurion has %d Intels, want 96", got)
	}
	if got := c.NumSwitches(); got != 9 {
		t.Fatalf("Centurion has %d switches, want 9 (8 edge + core)", got)
	}
	// Every edge switch hosts 16 nodes.
	for sw := 1; sw <= 8; sw++ {
		if got := len(c.NodesOnSwitch(sw)); got != 16 {
			t.Fatalf("switch %d hosts %d nodes, want 16", sw, got)
		}
	}
	if got := len(c.NodesOnSwitch(0)); got != 0 {
		t.Fatalf("core switch hosts %d nodes, want 0", got)
	}
}

func TestOrangeGroveShape(t *testing.T) {
	g := NewOrangeGrove()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := g.NumNodes(); got != 28 {
		t.Fatalf("Orange Grove has %d nodes, want 28", got)
	}
	for _, tc := range []struct {
		arch Arch
		want int
	}{{ArchAlpha, 8}, {ArchSPARC, 8}, {ArchIntel, 12}} {
		if got := len(g.NodesByArch(tc.arch)); got != tc.want {
			t.Fatalf("Orange Grove has %d %s nodes, want %d", got, tc.arch, tc.want)
		}
	}
	// Intel nodes are dual-CPU, others single.
	for id := 0; id < g.NumNodes(); id++ {
		n := g.Node(id)
		wantCPUs := 1
		if n.Arch == ArchIntel {
			wantCPUs = 2
		}
		if n.CPUs != wantCPUs {
			t.Fatalf("node %s (%s) has %d CPUs, want %d", g.NodeName(id), n.Arch, n.CPUs, wantCPUs)
		}
	}
}

func TestRoutingHops(t *testing.T) {
	c := NewCenturion()
	alphas := c.NodesByArch(ArchAlpha)
	// Two Alphas on the same edge switch: node-sw, sw-node = 2 hops.
	if h := c.Hops(alphas[0], alphas[1]); h != 2 {
		t.Fatalf("same-switch hops = %d, want 2", h)
	}
	// Alphas on different switches go through the core: 4 hops.
	if h := c.Hops(alphas[0], alphas[4]); h != 4 {
		t.Fatalf("cross-switch hops = %d, want 4", h)
	}

	g := NewOrangeGrove()
	galphas := g.NodesByArch(ArchAlpha)
	s := g.NodesByArch(ArchSPARC)[0]
	// Stack Alpha to west SPARC crosses D-Link B:
	// node-stack, stack-dlB, dlB-westS, westS-node = 4 hops.
	if h := g.Hops(galphas[0], s); h != 4 {
		t.Fatalf("federation hops = %d, want 4", h)
	}
	// 3Com-02 Alpha (behind D-Link A) to a west SPARC: 6 hops.
	if h := g.Hops(galphas[7], s); h != 6 {
		t.Fatalf("far federation hops = %d, want 6", h)
	}
	// The Alpha group itself spans D-Link A: 4 hops between its halves.
	if h := g.Hops(galphas[0], galphas[7]); h != 4 {
		t.Fatalf("alpha-group hops = %d, want 4", h)
	}
}

func TestPathSymmetryAndEndpoints(t *testing.T) {
	g := NewOrangeGrove()
	n := g.NumNodes()
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			pij, pji := g.Path(i, j), g.Path(j, i)
			if len(pij) != len(pji) {
				t.Fatalf("asymmetric path length %d<->%d: %d vs %d", i, j, len(pij), len(pji))
			}
			if i == j && len(pij) != 0 {
				t.Fatalf("loopback path %d not empty", i)
			}
		}
	}
}

func TestPathSignatureGroupsPairs(t *testing.T) {
	c := NewCenturion()
	alphas := c.NodesByArch(ArchAlpha)
	// Any two same-switch Alpha pairs share a signature.
	s1 := c.PathSignature(alphas[0], alphas[1])
	s2 := c.PathSignature(alphas[2], alphas[3])
	if s1 != s2 {
		t.Fatalf("same-class pairs have different signatures:\n%s\n%s", s1, s2)
	}
	// A cross-switch pair must differ from a same-switch pair.
	s3 := c.PathSignature(alphas[0], alphas[4])
	if s3 == s1 {
		t.Fatalf("cross-switch signature equals same-switch signature: %s", s3)
	}
	// Signature is direction-sensitive only in the arch endpoints.
	intels := c.NodesByArch(ArchIntel)
	ai := c.PathSignature(alphas[0], intels[0])
	ia := c.PathSignature(intels[0], alphas[0])
	if ai == ia {
		t.Fatalf("alpha->intel and intel->alpha signatures should differ: %s", ai)
	}
}

func TestSignatureClassCountIsSmall(t *testing.T) {
	// The whole point of path classes is an O(N) system profile: the number
	// of distinct classes must be tiny compared to the number of pairs.
	for _, topo := range []*Topology{NewCenturion(), NewOrangeGrove()} {
		classes := map[string]bool{}
		n := topo.NumNodes()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					classes[topo.PathSignature(i, j)] = true
				}
			}
		}
		pairs := n * (n - 1)
		if len(classes) > pairs/10 {
			t.Fatalf("%s: %d signature classes for %d pairs — classes are not coarse enough",
				topo.Name, len(classes), pairs)
		}
		t.Logf("%s: %d classes cover %d ordered pairs", topo.Name, len(classes), pairs)
	}
}

func TestArchInfoDefaults(t *testing.T) {
	ai := DefaultArchInfo(ArchAlpha)
	if ai.Speed != 1.0 {
		t.Fatalf("Alpha speed = %v, want 1.0 (reference)", ai.Speed)
	}
	if DefaultArchInfo(ArchIntel).Speed >= ai.Speed {
		t.Fatal("Intel must be slower than Alpha")
	}
	if DefaultArchInfo(ArchSPARC).Speed >= DefaultArchInfo(ArchIntel).Speed {
		t.Fatal("SPARC must be slower than Intel")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown arch should panic")
		}
	}()
	DefaultArchInfo(Arch("vax"))
}

func TestBuilderCustomTopology(t *testing.T) {
	b := NewBuilder("ring")
	var sws []int
	for i := 0; i < 4; i++ {
		sws = append(sws, b.Switch("sw", "3com-100", 8))
	}
	for i := 0; i < 4; i++ {
		b.Uplink(sws[i], sws[(i+1)%4], BandwidthFast100, des.Microsecond)
	}
	var nodes []int
	for i := 0; i < 4; i++ {
		nodes = append(nodes, b.Node("n", ArchRef, sws[i], BandwidthFast100, des.Microsecond))
	}
	topo := b.Build()
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	// Opposite corners of the ring: node-sw + 2 ring hops + sw-node = 4.
	if h := topo.Hops(nodes[0], nodes[2]); h != 4 {
		t.Fatalf("ring hops = %d, want 4", h)
	}
	// Adjacent: 3 hops.
	if h := topo.Hops(nodes[0], nodes[1]); h != 3 {
		t.Fatalf("adjacent ring hops = %d, want 3", h)
	}
}

// Property: for random pairs, the path starts at src's edge link and ends at
// dst's edge link, and consecutive links share a device.
func TestQuickPathWellFormed(t *testing.T) {
	g := NewOrangeGrove()
	prop := func(a, b uint8) bool {
		i := int(a) % g.NumNodes()
		j := int(b) % g.NumNodes()
		if i == j {
			return len(g.Path(i, j)) == 0
		}
		path := g.Path(i, j)
		if len(path) == 0 {
			return false
		}
		at := Device{DevNode, i}
		for _, lid := range path {
			l := g.Link(lid)
			switch at {
			case l.A:
				at = l.B
			case l.B:
				at = l.A
			default:
				return false // disconnected step
			}
		}
		return at == (Device{DevNode, j})
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: hop counts satisfy the triangle inequality loosely (path through
// an intermediate node is never shorter than the direct path).
func TestQuickHopsTriangle(t *testing.T) {
	c := NewTestTopology()
	rng := rand.New(rand.NewSource(7))
	for k := 0; k < 200; k++ {
		i, j, m := rng.Intn(8), rng.Intn(8), rng.Intn(8)
		if i == j || j == m || i == m {
			continue
		}
		if c.Hops(i, j) > c.Hops(i, m)+c.Hops(m, j) {
			t.Fatalf("triangle violated for %d,%d via %d", i, j, m)
		}
	}
}

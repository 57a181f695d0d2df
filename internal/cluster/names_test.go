package cluster

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"cbes/internal/des"
)

// The fat-tree builder once stored every record and spelled every name
// with fmt.Sprintf while laying out its tables. These tests rebuild those
// spellings and records from the documented ID arithmetic and require the
// coordinate-computed ones to equal them.

func checkNames(t *testing.T, kind string, got func(i int) string, want []string) {
	t.Helper()
	for i, w := range want {
		if g := got(i); g != w {
			t.Errorf("%s %d named %q, want %q", kind, i, g, w)
		}
	}
}

func checkTopologyNames(t *testing.T, topo *Topology, nodes, links []string) {
	t.Helper()
	if len(nodes) != topo.NumNodes() || len(links) != topo.NumLinks() {
		t.Fatalf("%s: expected %d/%d node/link names, topology has %d/%d", topo.Name,
			len(nodes), len(links), topo.NumNodes(), topo.NumLinks())
	}
	checkNames(t, topo.Name+" node", topo.NodeName, nodes)
	checkNames(t, topo.Name+" link", topo.LinkName, links)
}

func TestFatTreeNamesKeepFmtSpelling(t *testing.T) {
	const k, h = 4, 2
	var nodes, links []string
	for id := 0; id < k*h*h; id++ {
		nodes = append(nodes, fmt.Sprintf("ft-n%04d", id))
		links = append(links, fmt.Sprintf("ft-n%04d<->edge%d", id, id/h))
	}
	for _, tier := range []string{"ft-ea-p%d-e%d-a%d", "ft-ac-p%d-a%d-j%d"} {
		for p := 0; p < k; p++ {
			for i := 0; i < h; i++ {
				for j := 0; j < h; j++ {
					links = append(links, fmt.Sprintf(tier, p, i, j))
				}
			}
		}
	}
	topo, err := FromSpec("fattree:4")
	if err != nil {
		t.Fatal(err)
	}
	checkTopologyNames(t, topo, nodes, links)
}

// TestNameDigits covers the zero-padding widths no small topology reaches,
// on a 128 000-node fat tree that costs nothing to build.
func TestNameDigits(t *testing.T) {
	topo := NewFatTree(FatTreeSpec{K: 80}) // h = 40 nodes per edge switch
	for _, tc := range []struct {
		id         int
		node, link string
	}{
		{0, "ft-n0000", "ft-n0000<->edge0"},
		{7, "ft-n0007", "ft-n0007<->edge0"},
		{42, "ft-n0042", "ft-n0042<->edge1"},
		{999, "ft-n0999", "ft-n0999<->edge24"},
		{1000, "ft-n1000", "ft-n1000<->edge25"},
		{5487, "ft-n5487", "ft-n5487<->edge137"},
		{9999, "ft-n9999", "ft-n9999<->edge249"},
		{10000, "ft-n10000", "ft-n10000<->edge250"},
		{123456, "ft-n123456", "ft-n123456<->edge3086"},
	} {
		if got := topo.NodeName(tc.id); got != tc.node {
			t.Errorf("NodeName(%d) = %q, want %q", tc.id, got, tc.node)
		}
		if got := topo.LinkName(tc.id); got != tc.link {
			t.Errorf("LinkName(%d) = %q, want %q", tc.id, got, tc.link)
		}
	}
	for _, id := range []int{-1, topo.NumNodes()} {
		if got, want := topo.NodeName(id), fmt.Sprintf("node%d", id); got != want {
			t.Errorf("NodeName(%d) = %q, want %q", id, got, want)
		}
	}
}

// TestBuildBudget: a fat-tree build stores no per-node, per-link or
// per-switch state, so a 5k-node build costs what its class signatures
// cost — it once allocated 2.2 MB in 2 288 allocations. The signature
// table grows with classes (route shapes × architectures²), not nodes.
func TestBuildBudget(t *testing.T) {
	mixed := []Arch{ArchAlpha, ArchIntel, ArchSPARC}
	for name, build := range map[string]func() *Topology{
		"fattree-k28": func() *Topology { return NewFatTree(FatTreeSpec{K: 28, Archs: mixed}) },
	} {
		if n := build().NumNodes(); n < 4000 {
			t.Fatalf("%s: %d nodes, want a 5k-class build", name, n)
		}
		const runs = 8
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			build()
		}
		runtime.ReadMemStats(&after)
		bytes := (after.TotalAlloc - before.TotalAlloc) / runs
		allocs := testing.AllocsPerRun(runs, func() { build() })
		t.Logf("%s: %d B, %.0f allocations per build", name, bytes, allocs)
		if bytes >= 64<<10 || allocs >= 200 {
			t.Errorf("%s: build costs %d B in %.0f allocations, want < 64 kB and < 200", name, bytes, allocs)
		}
	}
}

// tables is a fat tree laid out the way its builder once stored it: every
// record, and every node and link name, in ID order.
type tables struct {
	nodes                []Node
	switches             []Switch
	links                []Link
	nodeNames, linkNames []string
}

func (tb *tables) sw(ports int, class string) {
	tb.switches = append(tb.switches, Switch{ID: len(tb.switches), Ports: ports, Class: class})
}

func (tb *tables) node(name string, info ArchInfo, sw int) {
	tb.nodes = append(tb.nodes, Node{ID: len(tb.nodes), Arch: info.Arch, Switch: sw, Speed: info.Speed, CPUs: info.CPUs})
	tb.nodeNames = append(tb.nodeNames, name)
}

func (tb *tables) link(name string, a, b Device, bw float64, lat des.Time) {
	tb.links = append(tb.links, Link{ID: len(tb.links), A: a, B: b, Bandwidth: bw, Latency: lat})
	tb.linkNames = append(tb.linkNames, name)
}

// oracleFatTree is NewFatTree's table loop before records were computed.
func oracleFatTree(spec FatTreeSpec) *tables {
	spec.defaults()
	k := spec.K
	h := k / 2
	n := k * h * h
	ai := newArchIndexer(spec.Archs)
	tb := &tables{}
	for p := 0; p < k; p++ {
		for e := 0; e < h; e++ {
			tb.sw(k, "ftree-edge")
		}
	}
	for p := 0; p < k; p++ {
		for a := 0; a < h; a++ {
			tb.sw(k, "ftree-agg")
		}
	}
	for a := 0; a < h; a++ {
		for j := 0; j < h; j++ {
			tb.sw(k, "ftree-core")
		}
	}
	for id := 0; id < n; id++ {
		sw := id / h
		tb.node(fmt.Sprintf("ft-n%04d", id), DefaultArchInfo(ai.arch(id)), sw)
		tb.link(fmt.Sprintf("ft-n%04d<->edge%d", id, sw), Device{DevNode, id}, Device{DevSwitch, sw},
			spec.NodeBandwidth, spec.NodeLatency)
	}
	for p := 0; p < k; p++ {
		for e := 0; e < h; e++ {
			for a := 0; a < h; a++ {
				edge, agg := p*h+e, k*h+p*h+a
				tb.link(fmt.Sprintf("ft-ea-p%d-e%d-a%d", p, e, a), Device{DevSwitch, edge}, Device{DevSwitch, agg},
					spec.UpBandwidth, spec.UpLatency)
			}
		}
	}
	for p := 0; p < k; p++ {
		for a := 0; a < h; a++ {
			for j := 0; j < h; j++ {
				agg, core := k*h+p*h+a, 2*k*h+a*h+j
				tb.link(fmt.Sprintf("ft-ac-p%d-a%d-j%d", p, a, j), Device{DevSwitch, agg}, Device{DevSwitch, core},
					spec.UpBandwidth, spec.UpLatency)
			}
		}
	}
	return tb
}

// sameTables reports the first record or name where topo departs from the
// oracle's tables, or "".
func sameTables(topo *Topology, want *tables) string {
	if topo.NumNodes() != len(want.nodes) || topo.NumSwitches() != len(want.switches) || topo.NumLinks() != len(want.links) {
		return fmt.Sprintf("%s: %d/%d/%d nodes/switches/links, oracle %d/%d/%d", topo.Name,
			topo.NumNodes(), topo.NumSwitches(), topo.NumLinks(), len(want.nodes), len(want.switches), len(want.links))
	}
	for id, w := range want.nodes {
		if got := topo.Node(id); got != w || topo.NodeName(id) != want.nodeNames[id] {
			return fmt.Sprintf("%s node %d: %+v %q, oracle %+v %q", topo.Name, id, got, topo.NodeName(id), w, want.nodeNames[id])
		}
	}
	for id, w := range want.switches {
		if got := topo.Switch(id); got != w {
			return fmt.Sprintf("%s switch %d: %+v, oracle %+v", topo.Name, id, got, w)
		}
	}
	for id, w := range want.links {
		if got := topo.Link(id); got != w || topo.LinkName(id) != want.linkNames[id] {
			return fmt.Sprintf("%s link %d: %+v %q, oracle %+v %q", topo.Name, id, got, topo.LinkName(id), w, want.linkNames[id])
		}
	}
	return ""
}

// TestQuickRecordsMatchTableLoops: on random small fat trees (random
// architecture patterns included), every computed record and name equals
// what the table-building loop produced, and EdgeLink agrees with the
// records.
func TestQuickRecordsMatchTableLoops(t *testing.T) {
	all := []Arch{ArchAlpha, ArchIntel, ArchSPARC, ArchRef}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var archs []Arch
		for i := rng.Intn(4); i > 0; i-- {
			archs = append(archs, all[rng.Intn(len(all))])
		}
		spec := FatTreeSpec{K: 2 * (1 + rng.Intn(4)), Archs: archs}
		topo := NewFatTree(spec)
		if diff := sameTables(topo, oracleFatTree(spec)); diff != "" {
			t.Log(diff)
			return false
		}
		return edgeLinksMatchRecords(t, topo)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// edgeLinksMatchRecords holds EdgeLink against the node records: the NIC
// link runs from the node to its edge switch.
func edgeLinksMatchRecords(t *testing.T, topo *Topology) bool {
	for id := 0; id < topo.NumNodes(); id++ {
		if l := topo.Link(topo.EdgeLink(id)); l.A != (Device{DevNode, id}) || l.B != (Device{DevSwitch, topo.Node(id).Switch}) {
			t.Logf("%s: EdgeLink(%d) = %+v", topo.Name, id, l)
			return false
		}
	}
	return true
}

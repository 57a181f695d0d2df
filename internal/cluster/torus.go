package cluster

import (
	"fmt"

	"cbes/internal/des"
)

// TorusSpec parameterizes a 2D (Z == 1) or 3D torus: one node per torus
// switch, wraparound +1 links along each dimension, dimension-order
// routing with shortest-wrap direction.
type TorusSpec struct {
	// X, Y, Z are the dimension sizes (each >= 1; Z == 0 means 1, a 2D
	// torus). 16×16×4 gives 1024 nodes, 16×18×19 gives 5472.
	X, Y, Z int
	// Archs assigns node architectures round-robin by node ID.
	Archs []Arch
	// NodeBandwidth/NodeLatency describe the NIC links (default 1 GigE /
	// 5 µs); LinkBandwidth/LinkLatency the inter-switch torus links
	// (default 10 GigE / 5 µs).
	NodeBandwidth float64
	LinkBandwidth float64
	NodeLatency   des.Time
	LinkLatency   des.Time
}

func (s *TorusSpec) defaults() {
	if s.Z == 0 {
		s.Z = 1
	}
	if s.NodeBandwidth <= 0 {
		s.NodeBandwidth = BandwidthGigE
	}
	if s.LinkBandwidth <= 0 {
		s.LinkBandwidth = BandwidthTenGigE
	}
	if s.NodeLatency <= 0 {
		s.NodeLatency = 5 * des.Microsecond
	}
	if s.LinkLatency <= 0 {
		s.LinkLatency = 5 * des.Microsecond
	}
}

// torusRouter routes by dimension order (X, then Y, then Z), stepping the
// shortest way around each ring (ties go in the + direction). Node and
// switch IDs share the coordinate layout id = (x·Y + y)·Z + z, and the
// NIC link ID equals the node ID. Ring links are laid out per dimension:
// the +1 link leaving coordinate c is indexed by c — except on rings of
// size 2, which have a single link per position pair.
type torusRouter struct {
	x, y, z int
	// ringX is the number of +1 links per X ring (0, 1, or X); likewise
	// Y and Z. xBase/yBase/zBase are the first link IDs of each group.
	ringX, ringY, ringZ int
	xBase, yBase, zBase int
	grid                shapeGrid
}

// ringLinks is the number of distinct +1 links on a ring of size d.
func ringLinks(d int) int {
	switch {
	case d < 2:
		return 0
	case d == 2:
		return 1
	default:
		return d
	}
}

func (r *torusRouter) coords(id int) (x, y, z int) {
	return id / (r.y * r.z), (id / r.z) % r.y, id % r.z
}

// ringSteps reports the signed shortest step count from c to t on a ring
// of size d: positive means + direction (ties break +).
func ringSteps(c, t, d int) int {
	delta := ((t-c)%d + d) % d
	if delta == 0 {
		return 0
	}
	if 2*delta <= d {
		return delta
	}
	return delta - d
}

// xLink/yLink/zLink return the link ID of the ring link between
// coordinate lower and lower+1 (mod size) at the given cross coordinates.
func (r *torusRouter) xLink(lower, y, z int) int {
	if r.x == 2 {
		lower = 0
	}
	return r.xBase + (lower*r.y+y)*r.z + z
}

func (r *torusRouter) yLink(x, lower, z int) int {
	if r.y == 2 {
		lower = 0
	}
	return r.yBase + (lower*r.x+x)*r.z + z
}

func (r *torusRouter) zLink(x, y, lower int) int {
	if r.z == 2 {
		lower = 0
	}
	return r.zBase + (lower*r.x+x)*r.y + y
}

func (r *torusRouter) appendPath(buf []int, src, dst int) []int {
	if src == dst {
		return buf
	}
	buf = append(buf, src) // NIC link onto the fabric
	x, y, z := r.coords(src)
	tx, ty, tz := r.coords(dst)
	for s := ringSteps(x, tx, r.x); s != 0; {
		if s > 0 {
			buf = append(buf, r.xLink(x, y, z))
			x, s = (x+1)%r.x, s-1
		} else {
			x = (x - 1 + r.x) % r.x
			buf = append(buf, r.xLink(x, y, z))
			s++
		}
	}
	for s := ringSteps(y, ty, r.y); s != 0; {
		if s > 0 {
			buf = append(buf, r.yLink(x, y, z))
			y, s = (y+1)%r.y, s-1
		} else {
			y = (y - 1 + r.y) % r.y
			buf = append(buf, r.yLink(x, y, z))
			s++
		}
	}
	for s := ringSteps(z, tz, r.z); s != 0; {
		if s > 0 {
			buf = append(buf, r.zLink(x, y, z))
			z, s = (z+1)%r.z, s-1
		} else {
			z = (z - 1 + r.z) % r.z
			buf = append(buf, r.zLink(x, y, z))
			s++
		}
	}
	return append(buf, dst) // NIC link off the fabric
}

// dist is the torus hop distance between the switches of src and dst.
func (r *torusRouter) dist(src, dst int) int {
	x, y, z := r.coords(src)
	tx, ty, tz := r.coords(dst)
	abs := func(v int) int {
		if v < 0 {
			return -v
		}
		return v
	}
	return abs(ringSteps(x, tx, r.x)) + abs(ringSteps(y, ty, r.y)) + abs(ringSteps(z, tz, r.z))
}

func (r *torusRouter) hops(src, dst int) int {
	if src == dst {
		return 0
	}
	return r.dist(src, dst) + 2
}

// classID: shape 0 is loopback; shape d >= 1 is "torus distance d" —
// with uniform ring links, the signature depends only on the distance
// and the end architectures.
func (r *torusRouter) classID(src, dst int) int {
	if src == dst {
		return r.grid.id(0, src, dst)
	}
	return r.grid.id(r.dist(src, dst), src, dst)
}

// NewTorus builds a 2D/3D torus with algebraic dimension-order routing.
func NewTorus(spec TorusSpec) *Topology {
	spec.defaults()
	if spec.X < 1 || spec.Y < 1 || spec.Z < 1 {
		panic(fmt.Sprintf("cluster: torus dimensions must be >= 1, got %dx%dx%d", spec.X, spec.Y, spec.Z))
	}
	X, Y, Z := spec.X, spec.Y, spec.Z
	n := X * Y * Z
	maxDist := X/2 + Y/2 + Z/2
	ai := newArchIndexer(spec.Archs)
	r := &torusRouter{x: X, y: Y, z: Z,
		ringX: ringLinks(X), ringY: ringLinks(Y), ringZ: ringLinks(Z),
		grid: shapeGrid{ai: ai, shapes: maxDist + 1}}
	r.xBase = n
	r.yBase = r.xBase + r.ringX*Y*Z
	r.zBase = r.yBase + r.ringY*X*Z

	name := fmt.Sprintf("torus-%dx%d", X, Y)
	if Z > 1 {
		name = fmt.Sprintf("torus-%dx%dx%d", X, Y, Z)
	}
	t := &Topology{
		Name:     name,
		Nodes:    make([]Node, 0, n),
		Switches: make([]Switch, 0, n),
		Links:    make([]Link, 0, n+r.ringX*Y*Z+r.ringY*X*Z+r.ringZ*X*Y),
		archs:    defaultArchTable(ai),
		alg:      r,
	}
	names := newNameArena(cap(t.Nodes) + cap(t.Switches) + cap(t.Links))
	// One switch per node, sharing the node's ID and coordinates.
	for id := 0; id < n; id++ {
		x, y, z := r.coords(id)
		t.Switches = append(t.Switches, Switch{ID: id,
			Name: names.s("tor-sw-").d(x).s("-").d(y).s("-").d(z).end(), Ports: 7, Class: "torus"})
		info := t.archs[ai.arch(id)]
		t.Nodes = append(t.Nodes, Node{ID: id, Name: names.s("tor-n").d4(id).end(),
			Arch: info.Arch, Switch: id, Speed: info.Speed, CPUs: info.CPUs})
		t.Links = append(t.Links, Link{ID: id,
			A: Device{DevNode, id}, B: Device{DevSwitch, id},
			Bandwidth: spec.NodeBandwidth, Latency: spec.NodeLatency,
			Name: names.s("tor-n").d4(id).s("<->sw").end()})
	}
	ring := func(dim string, count int, at func(i, a, b int) (lo, hi int)) {
		for i := 0; i < count; i++ {
			// a×b iterates the cross-section in the same order the
			// router's link index arithmetic assumes.
			switch dim {
			case "x":
				for yy := 0; yy < Y; yy++ {
					for zz := 0; zz < Z; zz++ {
						lo, hi := at(i, yy, zz)
						t.Links = append(t.Links, Link{ID: len(t.Links),
							A: Device{DevSwitch, lo}, B: Device{DevSwitch, hi},
							Bandwidth: spec.LinkBandwidth, Latency: spec.LinkLatency,
							Name: names.s("tor-x").d(i).s("-y").d(yy).s("-z").d(zz).end()})
					}
				}
			case "y":
				for xx := 0; xx < X; xx++ {
					for zz := 0; zz < Z; zz++ {
						lo, hi := at(i, xx, zz)
						t.Links = append(t.Links, Link{ID: len(t.Links),
							A: Device{DevSwitch, lo}, B: Device{DevSwitch, hi},
							Bandwidth: spec.LinkBandwidth, Latency: spec.LinkLatency,
							Name: names.s("tor-y").d(i).s("-x").d(xx).s("-z").d(zz).end()})
					}
				}
			case "z":
				for xx := 0; xx < X; xx++ {
					for yy := 0; yy < Y; yy++ {
						lo, hi := at(i, xx, yy)
						t.Links = append(t.Links, Link{ID: len(t.Links),
							A: Device{DevSwitch, lo}, B: Device{DevSwitch, hi},
							Bandwidth: spec.LinkBandwidth, Latency: spec.LinkLatency,
							Name: names.s("tor-z").d(i).s("-x").d(xx).s("-y").d(yy).end()})
					}
				}
			}
		}
	}
	sw := func(x, y, z int) int { return (x*Y+y)*Z + z }
	ring("x", r.ringX, func(i, yy, zz int) (int, int) { return sw(i, yy, zz), sw((i+1)%X, yy, zz) })
	ring("y", r.ringY, func(i, xx, zz int) (int, int) { return sw(xx, i, zz), sw(xx, (i+1)%Y, zz) })
	ring("z", r.ringZ, func(i, xx, yy int) (int, int) { return sw(xx, yy, i), sw(xx, yy, (i+1)%Z) })

	t.classSigs = r.grid.signatures(func(w *sigWriter, shape int) {
		// Shape d: src NIC onto the fabric, d ring links, dst NIC off.
		w.hopSwitch(spec.NodeBandwidth, "torus")
		for i := 0; i < shape; i++ {
			w.hopSwitch(spec.LinkBandwidth, "torus")
		}
		w.hopNode(spec.NodeBandwidth)
	})
	t.buildIndexes()
	return t
}

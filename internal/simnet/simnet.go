// Package simnet simulates message transport over a cluster.Topology:
// store-and-forward traversal of each link on the route with FIFO
// serialization per link direction.
//
// A message of s bytes crossing links l1..lk experiences, at each link, a
// queueing wait (the link transmits one frame train at a time per
// direction), a transmission time s/bandwidth, and the link's propagation/
// forwarding latency. This reproduces the paper's observation that
// internode latency varies with topology, message size, and load: shared
// uplinks and the Orange Grove federation path congest under concurrent
// traffic.
//
// CPU-side software overheads (the MPI library path) are NOT charged here;
// internal/mpisim charges them to the sender's and receiver's CPUs, which
// is how CPU load inflates end-to-end latency in this system, mirroring
// the latency model of the paper's companion dissertation [12].
//
// The per-link dynamic state (bandwidth scale, FIFO horizon, utilization
// accounting) exists only for links a run touches: a 256-rank halo on a
// 5k-node fat tree crosses one link in seven, and pays for that one.
package simnet

import (
	"cbes/internal/cluster"
	"cbes/internal/des"
)

// Network simulates the fabric of a topology on a DES engine.
//
// slot[id] is 0 for a link no message has crossed and no fault has
// degraded; otherwise link id owns state row slot[id]−1, appended on that
// first touch together with a copy of the static link the hops read.
// Rows live in fixed-size chunks, so appending one never copies the
// others.
type Network struct {
	eng   *des.Engine
	topo  *cluster.Topology
	slot  []int32
	rows  [][]linkRow // row r is rows[r/rowChunk][r%rowChunk]
	nrows int
	// free recycles transfer records so a multi-hop message costs no
	// allocations beyond its first traversal of the network.
	free []*transfer
	// stats
	messages uint64
	bytes    uint64
}

// linkRow is the state of one touched link. Index 0 of the per-direction
// pairs is the A→B direction, 1 is B→A.
type linkRow struct {
	freeAt    [2]des.Time // FIFO release time
	busy      [2]des.Time // accumulated transmission time
	scale     float64     // multiplies nominal bandwidth: 1 healthy, less degraded
	bandwidth float64     // nominal
	latency   des.Time
	ends      [2]int32 // vertex of A and of B
}

// rowChunk is the number of rows allocated at a time.
const rowChunk = 128

// vertex packs a device into an int32: a node's ID, or a switch's ID
// complemented.
func vertex(d cluster.Device) int32 {
	if d.Kind == cluster.DevNode {
		return int32(d.Index)
	}
	return ^int32(d.Index)
}

// transfer is one in-flight message traversing its route. Recycled via
// Network.free once the final hop delivers; path is the transfer's own
// route storage, reused across messages.
type transfer struct {
	net  *Network
	from int32 // vertex the next hop leaves
	path []int
	idx  int
	size int64
	done func()
	// afn/arg is the allocation-lean completion form used by DeliverArg.
	afn func(any)
	arg any
}

// stepTransfer is the package-level hop callback used with des.ScheduleArg,
// replacing the closure the engine would otherwise allocate per hop.
func stepTransfer(a any) {
	t := a.(*transfer)
	t.net.hop(t)
}

// New creates a network simulator for topo.
func New(eng *des.Engine, topo *cluster.Topology) *Network {
	return &Network{eng: eng, topo: topo, slot: make([]int32, topo.NumLinks())}
}

// touched returns link id's state, or nil if it has none.
func (n *Network) touched(id int) *linkRow {
	s := int(n.slot[id]) - 1
	if s < 0 {
		return nil
	}
	return &n.rows[s/rowChunk][s%rowChunk]
}

// row returns link id's state, appending a healthy idle row on the
// link's first touch.
func (n *Network) row(id int) *linkRow {
	if r := n.touched(id); r != nil {
		return r
	}
	if n.nrows%rowChunk == 0 {
		// A topology with fewer links than a chunk only ever needs one.
		n.rows = append(n.rows, make([]linkRow, min(rowChunk, len(n.slot))))
	}
	r := &n.rows[n.nrows/rowChunk][n.nrows%rowChunk]
	n.nrows++
	n.slot[id] = int32(n.nrows)
	l := n.topo.Link(id)
	*r = linkRow{scale: 1, bandwidth: l.Bandwidth, latency: l.Latency, ends: [2]int32{vertex(l.A), vertex(l.B)}}
	return r
}

// minBandwidthScale bounds degradation so transmission times stay finite: a
// "partitioned" link crawls at 1% of nominal bandwidth rather than
// stalling the simulation forever.
const minBandwidthScale = 0.01

// DegradeLink scales link id's bandwidth by factor (clamped to
// [minBandwidthScale, 1]) — the fault-injection hook for flaky cables and
// congested switch ports. In-flight transmissions keep their already
// computed times; subsequent messages see the degraded rate.
func (n *Network) DegradeLink(id int, factor float64) {
	if factor > 1 {
		factor = 1
	}
	if factor < minBandwidthScale {
		factor = minBandwidthScale
	}
	n.row(id).scale = factor
}

// RestoreLink returns link id to nominal bandwidth.
func (n *Network) RestoreLink(id int) {
	if r := n.touched(id); r != nil {
		r.scale = 1
	}
}

// Messages reports the number of messages fully delivered so far.
func (n *Network) Messages() uint64 { return n.messages }

// Bytes reports the total payload bytes delivered so far.
func (n *Network) Bytes() uint64 { return n.bytes }

// txTime is the serialization delay of size bytes on a link.
func txTime(size int64, bandwidth float64) des.Time {
	if size <= 0 {
		return 0
	}
	return des.FromSeconds(float64(size) / bandwidth)
}

// Deliver injects a message of size bytes from node src to node dst and
// calls delivered when the last byte arrives at dst. Loopback (src == dst)
// delivers after a fixed small memcpy-like delay. Must be called from
// engine context.
func (n *Network) Deliver(src, dst int, size int64, delivered func()) {
	t := n.allocTransfer()
	t.done = delivered
	n.launch(t, src, dst, size)
}

// DeliverArg is Deliver with the completion callback split into a
// (pre-existing) function plus one argument, so hot senders avoid a closure
// allocation per message.
func (n *Network) DeliverArg(src, dst int, size int64, fn func(any), arg any) {
	t := n.allocTransfer()
	t.afn, t.arg = fn, arg
	n.launch(t, src, dst, size)
}

func (n *Network) allocTransfer() *transfer {
	if k := len(n.free); k > 0 {
		t := n.free[k-1]
		n.free[k-1] = nil
		n.free = n.free[:k-1]
		return t
	}
	return &transfer{}
}

func (n *Network) launch(t *transfer, src, dst int, size int64) {
	t.net, t.size, t.idx = n, size, 0
	t.path = t.path[:0]
	if src == dst {
		n.eng.ScheduleArg(loopbackLatency(size), stepTransfer, t)
		return
	}
	t.from = int32(src)
	t.path = n.topo.AppendPath(t.path, src, dst) // amortized zero allocations
	n.hop(t)
}

// loopbackLatency models same-node (shared-memory) delivery.
func loopbackLatency(size int64) des.Time {
	// ~5 µs constant plus a 400 MB/s memcpy.
	return 5*des.Microsecond + des.FromSeconds(float64(size)/400e6)
}

// hop advances the transfer across its next link; when the route is
// exhausted it counts the delivery, recycles the record, and invokes the
// caller's callback.
func (n *Network) hop(t *transfer) {
	if t.idx >= len(t.path) {
		n.messages++
		n.bytes += uint64(t.size)
		done, afn, arg := t.done, t.afn, t.arg
		t.done, t.afn, t.arg = nil, nil, nil
		t.net = nil
		n.free = append(n.free, t)
		if done != nil {
			done()
		} else {
			afn(arg)
		}
		return
	}
	r := n.row(t.path[t.idx])
	dir := 0
	if r.ends[0] != t.from {
		dir = 1
	}
	start := n.eng.Now()
	if r.freeAt[dir] > start {
		start = r.freeAt[dir]
	}
	tx := txTime(t.size, r.bandwidth*r.scale)
	r.freeAt[dir] = start + tx
	r.busy[dir] += tx
	arrive := start + tx + r.latency
	t.from = r.ends[1-dir]
	t.idx++
	n.eng.ScheduleArgAt(arrive, stepTransfer, t)
}

// EstimateNoLoad computes, without simulating, the no-contention traversal
// time of a message along the route — the "wire" component that the CBES
// latency model fits during calibration.
func (n *Network) EstimateNoLoad(src, dst int, size int64) des.Time {
	if src == dst {
		return loopbackLatency(size)
	}
	var buf [16]int
	var t des.Time
	for _, lid := range n.topo.AppendPath(buf[:0], src, dst) {
		l := n.topo.Link(lid)
		t += txTime(size, l.Bandwidth) + l.Latency
	}
	return t
}

// LinkBusy reports the accumulated transmission time of link id in both
// directions (used by NIC/bandwidth sensors).
func (n *Network) LinkBusy(id int) des.Time {
	if r := n.touched(id); r != nil {
		return r.busy[0] + r.busy[1]
	}
	return 0
}

// EdgeLink returns the ID of the link that connects node id to its edge
// switch (its NIC cable).
func (n *Network) EdgeLink(node int) int {
	return n.topo.EdgeLink(node)
}

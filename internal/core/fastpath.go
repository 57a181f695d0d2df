// The evaluation kernel: the one implementation of eqs. 4-8. Scorer.Energy
// scores a mapping without allocating and primes incremental
// delta-evaluation of typed moves (Scorer.Apply/Undo), the throughput engine
// behind the CS/NCS/GA schedulers; Evaluator.Estimate and Evaluator.Predict
// are the same evaluation on a pooled scorer, Predict followed by a detail
// pass that copies the per-process terms out, and Evaluator.PredictBrownout
// is it on the rank-collapsed index against an idle snapshot.
//
// The evaluator precomputes, once per (topology, model, profile) triple:
//
//   - λ_i = B_i / Θ_i^profile of eq. 7 for every profile entry: Θ under the
//     profiling mapping and the model's no-load latencies, the conditions
//     eq. 7 defines it under. The profile stores only measurements, so λ
//     always matches the model the evaluator holds;
//   - network-model classes indexed by interned path-class ID (plus the
//     topology's flat pair→ID table when it stores one), so the hot loop
//     never rebuilds path signatures or hashes map keys — and never
//     allocates O(nodes²) state on structured topologies;
//   - one Lc table row per (path class, distinct message size) holding the
//     curve value and its wire part, so a latency is a table read plus the
//     load terms — no curve search;
//   - the links: every distinct directed (src rank, dst rank, size) that
//     an entry with λ ≠ 0 reads, numbered in Θ order of first appearance,
//     and per rank the links it is an endpoint of;
//   - the Θ rows: every distinct ordered list of (link, count) an entry
//     with λ ≠ 0 sums for eq. 6, receives then sends, and each entry's row
//     ID. Eq. 6 reads the mapping only through the links, so a segmented
//     profile repeating the same exchange in every segment holds one row
//     per rank and exchange shape, not one per (segment, rank) entry;
//   - per entry its rank and X+O, the numerator of eq. 5;
//   - per-node resolved compute speeds and CPU counts (no ArchSpeed map
//     lookups), and per rank Speed_profile of eq. 5: the speed at the
//     rank's profiling node Mapping[r], which the profile does not store;
//   - per-rank communication dependents: the profile entries whose Θ term
//     (eq. 6) reads that rank's node, derived from the send/recv groups;
//   - on the first PredictBrownout, the rank-collapsed index: one segment
//     of one entry per rank, its work the rank's Σ X+O over segments, its
//     λ 1, and its Θ row the rank's Σ λ·count per link, sharing every
//     table above that the mapping and snapshot enter through.
//
// A Scorer then carries the mutable scratch state for one mapping: one Lc
// per link, one Θ per row, flat per-(segment,proc) R and C terms,
// per-node multiplicities, per-segment maxima, and an undo journal. Lc
// depends only on the link's two nodes, its size and the snapshot, so a
// full evaluation computes it once per link rather than once per message
// group at both endpoints and in every segment; Θ depends only on the
// links, so it is summed once per row, and eq. 5's speed and ACPU factors
// once per rank. Applying a Move recomputes the links of the moved
// rank(s), re-scores only the entries whose inputs changed — the moved
// rank(s), their communication peers (not under ignoreComm, where every C
// term is zero and no link is kept), and (for capacity-changing moves) the
// ranks co-located on the two affected nodes — and rebuilds the total from
// per-segment maxima, so the running energy is always bit-identical to a
// fresh full evaluation.
//
// Invariants, checked by TestFastPathEquivalence, TestPredictBrownoutSketch
// and FuzzEnergyDelta against oraclePredict — the segment-by-segment walk over Model.Latency that the
// kernel replaced, kept in oracle_test.go as an independent reference:
//
//	Energy(m, snap), Estimate(m, snap), Predict(m, snap)
//	                            == oraclePredict(m, snap)     (every field, exactly)
//	Scorer.Apply(mv); EnergyNow == Energy(moved m, snap)      (exactly)
//	Scorer.Undo() restores the pre-Apply state                (exactly)
//	PredictBrownout(m) == oracleBrownout(m)                   (relative 1e-12)
package core

import (
	"encoding/binary"
	"fmt"
	"sync"

	"cbes/internal/cluster"
	"cbes/internal/monitor"
	"cbes/internal/netmodel"
	"cbes/internal/profile"
	"cbes/internal/trace"
)

// Move is a typed mapping perturbation for the delta fast path. A zero
// Move is "move rank 0 to node 0".
type Move struct {
	// Swap selects the perturbation kind: false moves Rank to node To,
	// true exchanges the nodes of ranks A and B.
	Swap bool
	Rank int // rank to move (Swap == false)
	To   int // destination node (Swap == false)
	A, B int // ranks to exchange (Swap == true)
}

// fastIndex holds the immutable precomputed lookup tables shared by every
// Scorer of one evaluator (and its CommBlind sibling).
type fastIndex struct {
	nodes int
	// classes is indexed by interned path-class ID (O(classes), not
	// O(nodes²)); nil entry = uncalibrated. classTbl is the topology's flat
	// src·n+dst → class-ID table when it stores one (the 2005 testbeds);
	// structured topologies leave it nil and resolve IDs algebraically.
	classes   []*netmodel.Class
	classTbl  []int32
	topo      *cluster.Topology
	speed     []float64 // per node: profile speed with nominal fallback
	cpus      []int     // per node: CPU count
	profSpeed []float64 // per rank: Speed_profile of eq. 5 (len = ranks)
	// Flat entries are every segment's processes in profile order;
	// segOff[s] is the first flat index of segment s (len = segments+1).
	// Per flat entry f: rankOf[f] its rank, work[f] its X+O, lambda[f] its
	// λ (eq. 7, 0 when its Θ^profile is not positive) and rowOf[f] its Θ
	// row, -1 when λ = 0.
	segOff []int
	rankOf []int32
	work   []float64
	lambda []float64
	rowOf  []int32
	// Θ rows: row i sums rowCount[j]·Lc(rowLink[j]) over j in
	// [rowOff[i], rowOff[i+1]), in the order Θ accumulates an entry's
	// groups (receives, then sends). Rows are interned on that exact
	// sequence, so entries sharing a row share its Θ bit for bit.
	rowOff   []int32
	rowLink  []int32
	rowCount []float64
	// links lists every distinct directed link an entry with λ ≠ 0 reads,
	// in Θ order of first appearance; rankLinks[r] lists, ascending, the
	// links rank r is an endpoint of (a rank's link to itself once).
	links     []link
	rankLinks [][]int32
	// Lc tables: row id·sizes+k holds class id's Curve.At at distinct size k
	// (lat) and its wire part At − Base (wire); csend/crecv are the class's
	// load coefficients. O(classes × sizes); uncalibrated classes keep
	// zero rows and are caught by the nil check on classes.
	sizes        int
	lat, wire    []float64
	csend, crecv []float64
	// own[r] lists the flat entries belonging to rank r (one per segment
	// the rank appears in). commDeps[r] lists every flat entry whose C
	// term reads m[r]: r's own entries plus entries of ranks whose
	// send/recv groups name r as peer. Both are sorted and deduplicated.
	own      [][]int32
	commDeps [][]int32
}

// link is one directed (src rank, dst rank, distinct message size) of the
// profile: Lc of its two mapped nodes at size index k.
type link struct{ src, dst, k int32 }

func buildFastIndex(e *Evaluator) *fastIndex {
	n := e.Topo.NumNodes()
	ix := &fastIndex{
		nodes:    n,
		classes:  e.Model.ClassesByID(),
		classTbl: e.Topo.ClassIDTable(),
		topo:     e.Topo,
		speed:    make([]float64, n),
		cpus:     make([]int, n),
	}
	for node := 0; node < n; node++ {
		nd := e.Topo.Node(node)
		speed, ok := e.Prof.ArchSpeed[nd.Arch]
		if !ok || speed <= 0 {
			speed = nd.Speed
		}
		ix.speed[node] = speed
		ix.cpus[node] = nd.CPUs
	}
	ranks := len(e.Prof.Mapping)
	ix.profSpeed = make([]float64, ranks)
	for r, node := range e.Prof.Mapping {
		ix.profSpeed[r] = ix.speed[node]
	}
	ix.own = make([][]int32, ranks)
	ix.commDeps = make([][]int32, ranks)
	// addDep records f as a communication dependent of rank r. Entries are
	// numbered in increasing order, so skipping a repeat of a list's last
	// element keeps every list sorted and deduplicated.
	addDep := func(r int, f int32) {
		if deps := ix.commDeps[r]; len(deps) == 0 || deps[len(deps)-1] != f {
			ix.commDeps[r] = append(deps, f)
		}
	}
	entries := 0
	for _, seg := range e.Prof.Segments {
		entries += len(seg.Procs)
	}
	ix.segOff = make([]int, 1, len(e.Prof.Segments)+1)
	ix.rankOf = make([]int32, 0, entries)
	ix.work = make([]float64, 0, entries)
	ix.lambda = make([]float64, 0, entries)
	ix.rowOf = make([]int32, 0, entries)
	ix.rowOff = []int32{0}
	sizeIdx := map[int64]int32{}
	var sizes []int64
	linkIdx := map[link]int32{}
	// rowIdx interns rows on key, the encoded (link ID, count) sequence of
	// the entry being built, whose terms addGroups appends to the row
	// table's tail.
	rowIdx := map[string]int32{}
	var key []byte
	// addGroups records f as a communication dependent of every peer and,
	// when f's C term reads them (λ ≠ 0), the link and count of every
	// group: peer to rank for receives, rank to peer for sends.
	addGroups := func(f int32, pp *profile.ProcProfile, gs []trace.MsgGroup, recv bool) {
		for _, g := range gs {
			if g.Peer >= 0 && g.Peer < ranks {
				addDep(g.Peer, f)
			}
			if ix.lambda[f] == 0 {
				continue
			}
			k, ok := sizeIdx[g.Size]
			if !ok {
				k = int32(len(sizes))
				sizeIdx[g.Size] = k
				sizes = append(sizes, g.Size)
			}
			ln := link{src: int32(pp.Rank), dst: int32(g.Peer), k: k}
			if recv {
				ln.src, ln.dst = ln.dst, ln.src
			}
			id, ok := linkIdx[ln]
			if !ok {
				id = int32(len(ix.links))
				linkIdx[ln] = id
				ix.links = append(ix.links, ln)
			}
			ix.rowLink = append(ix.rowLink, id)
			ix.rowCount = append(ix.rowCount, float64(g.Count))
			key = binary.LittleEndian.AppendUint32(key, uint32(id))
			key = binary.LittleEndian.AppendUint64(key, uint64(g.Count))
		}
	}
	for si := range e.Prof.Segments {
		seg := &e.Prof.Segments[si]
		for pi := range seg.Procs {
			pp := &seg.Procs[pi]
			f := int32(len(ix.rankOf))
			ix.rankOf = append(ix.rankOf, int32(pp.Rank))
			ix.work = append(ix.work, pp.X+pp.O)
			if pp.Rank >= 0 && pp.Rank < ranks {
				ix.own[pp.Rank] = append(ix.own[pp.Rank], f)
				addDep(pp.Rank, f)
			}
			lam := 0.0
			if theta := profile.Theta(pp, e.Prof.Mapping, e.Model.NoLoad); theta > 0 {
				lam = pp.B / theta
			}
			ix.lambda = append(ix.lambda, lam)
			start := len(ix.rowLink)
			key = key[:0]
			addGroups(f, pp, pp.Recvs, true)
			addGroups(f, pp, pp.Sends, false)
			row := int32(-1)
			if lam != 0 {
				var seen bool
				if row, seen = rowIdx[string(key)]; seen {
					ix.rowLink, ix.rowCount = ix.rowLink[:start], ix.rowCount[:start]
				} else {
					row = int32(len(ix.rowOff) - 1)
					rowIdx[string(key)] = row
					ix.rowOff = append(ix.rowOff, int32(len(ix.rowLink)))
				}
			}
			ix.rowOf = append(ix.rowOf, row)
		}
		ix.segOff = append(ix.segOff, len(ix.rankOf))
	}
	// A link's ranks lie in [0, ranks): profile.FromTrace and
	// profile.Decode reject any other rank or peer, and deriving λ above
	// read mapping[rank] for every group of every entry.
	// Each rank's list is carved from one backing array by its degree, so
	// the appends below never reallocate.
	deg := make([]int, ranks)
	for _, ln := range ix.links {
		deg[ln.src]++
		if ln.dst != ln.src {
			deg[ln.dst]++
		}
	}
	ix.rankLinks = make([][]int32, ranks)
	backing := make([]int32, 0, 2*len(ix.links))
	for r, d := range deg {
		end := len(backing)
		ix.rankLinks[r] = backing[end : end : end+d]
		backing = backing[:end+d]
	}
	for id, ln := range ix.links {
		ix.rankLinks[ln.src] = append(ix.rankLinks[ln.src], int32(id))
		if ln.dst != ln.src {
			ix.rankLinks[ln.dst] = append(ix.rankLinks[ln.dst], int32(id))
		}
	}
	nc := len(ix.classes)
	ix.sizes = len(sizes)
	ix.lat = make([]float64, nc*len(sizes))
	ix.wire = make([]float64, nc*len(sizes))
	ix.csend = make([]float64, nc)
	ix.crecv = make([]float64, nc)
	for id, c := range ix.classes {
		if c == nil {
			continue
		}
		ix.csend[id], ix.crecv[id] = c.CSend, c.CRecv
		for k, size := range sizes {
			at := c.Curve.At(size)
			ix.lat[id*len(sizes)+k] = at
			ix.wire[id*len(sizes)+k] = at - c.Curve.Base()
		}
	}
	metricEvaluators.Inc()
	return ix
}

// collapse derives the rank-collapsed index PredictBrownout evaluates: one
// segment holding one entry per rank, whose work is the rank's X+O summed
// over its entries, whose λ is 1, and whose Θ row holds per link the
// rank's Σ λ_f·count, links in order of first appearance. R and C are
// linear in work and count, so the entry's total is the rank's Σ_s (R + C)
// and the segment's peak max_r Σ_s, which never exceeds the full
// evaluation's Σ_s max_r. The links, Lc tables, speeds and CPU counts are
// ix's own. Apply is not supported on it (no own or commDeps lists).
func (ix *fastIndex) collapse() *fastIndex {
	ranks := len(ix.profSpeed)
	cx := *ix
	cx.segOff = []int{0, ranks}
	cx.rankOf = make([]int32, ranks)
	cx.work = make([]float64, ranks)
	cx.lambda = make([]float64, ranks)
	cx.rowOf = make([]int32, ranks)
	cx.rowOff = make([]int32, 1, ranks+1)
	cx.rowLink, cx.rowCount = nil, nil
	cx.own, cx.commDeps = nil, nil
	term := map[int32]int{} // link → its term in the rank's row
	for r, fs := range ix.own {
		clear(term)
		cx.rankOf[r], cx.lambda[r], cx.rowOf[r] = int32(r), 1, int32(r)
		for _, f := range fs {
			cx.work[r] += ix.work[f]
			if row := ix.rowOf[f]; row >= 0 {
				for j := ix.rowOff[row]; j < ix.rowOff[row+1]; j++ {
					l, w := ix.rowLink[j], ix.lambda[f]*ix.rowCount[j]
					if k, ok := term[l]; ok {
						cx.rowCount[k] += w
						continue
					}
					term[l] = len(cx.rowLink)
					cx.rowLink = append(cx.rowLink, l)
					cx.rowCount = append(cx.rowCount, w)
				}
			}
		}
		cx.rowOff = append(cx.rowOff, int32(len(cx.rowLink)))
	}
	return &cx
}

// CommBlind returns an evaluator over the same profile, model, and
// precomputed index with the communication term disabled — the NCS cost
// function. The receiver is unaffected.
func (e *Evaluator) CommBlind() *Evaluator {
	return &Evaluator{Topo: e.Topo, Model: e.Model, Prof: e.Prof, ignoreComm: true, fastIx: e.fastIx}
}

// savedTerm is one undo-journal record: the pre-move R and C of one entry.
type savedTerm struct {
	f    int32
	r, c float64
}

// savedLink is one undo-journal record: the pre-move Lc of one link.
type savedLink struct {
	l   int32
	lat float64
}

// frame is the undo record of one applied Move.
type frame struct {
	mv     Move
	from   int // origin node(s) needed to invert the move
	fromB  int
	noop   bool
	links  []savedLink
	terms  []savedTerm
	segMax []float64
	total  float64
}

// Scorer evaluates mappings of one evaluator without allocating, and
// supports incremental delta-evaluation of typed moves with multi-level
// undo. A Scorer is NOT safe for concurrent use; create one per goroutine
// (the Evaluator itself is shareable).
type Scorer struct {
	e  *Evaluator
	ix *fastIndex
	// avail/nic are the effective per-node resource views: the snapshot's
	// forecasts with profile-only fallback values (nominal CPU availability,
	// idle NIC) substituted for stale (HealthSuspect) nodes, so a degraded
	// prediction rests on what the profile alone supports rather than on
	// forecasts past their TTL.
	avail []float64
	nic   []float64

	m       Mapping   // current mapping (owned)
	mult    []int     // ranks per node
	linkLat []float64 // Lc per link; untouched under ignoreComm
	theta   []float64 // Θ per row, prime's scratch; untouched under ignoreComm
	r, c    []float64 // per flat entry
	segMax  []float64
	total   float64
	primed  bool

	// rfac/rinv hold prime's eq. 5 factors per rank (rankFactors).
	rfac, rinv []float64

	frames []frame
	depth  int

	// epoch-stamped scratch for deduplicating touched entries/segments.
	seenEntry []uint32
	seenSeg   []uint32
	epoch     uint32
	touched   []int32

	// Apply, Undo and rescored-term counts not yet added to the
	// process-wide series: counting here keeps parallel searches off
	// shared atomics per move. prime and Publish flush them.
	nDelta, nUndo, nTouched uint64
}

// Scorer returns a fresh scorer for this evaluator. The scorer reuses its
// internal arena across Energy/Apply calls, so steady-state evaluation does
// not allocate.
func (e *Evaluator) Scorer() *Scorer { return e.scorerOn(e.fastIx) }

// scorerOn returns a fresh scorer of e over ix: e.fastIx, or the
// rank-collapsed index behind PredictBrownout.
func (e *Evaluator) scorerOn(ix *fastIndex) *Scorer {
	ranks, entries, rows := len(ix.profSpeed), len(ix.rankOf), len(ix.rowOff)-1
	return &Scorer{
		e:         e,
		ix:        ix,
		m:         make(Mapping, ranks),
		mult:      make([]int, ix.nodes),
		linkLat:   make([]float64, len(ix.links)),
		theta:     make([]float64, rows),
		avail:     make([]float64, ix.nodes),
		nic:       make([]float64, ix.nodes),
		r:         make([]float64, entries),
		c:         make([]float64, entries),
		segMax:    make([]float64, len(ix.segOff)-1),
		rfac:      make([]float64, ranks),
		rinv:      make([]float64, ranks),
		seenEntry: make([]uint32, entries),
		seenSeg:   make([]uint32, len(ix.segOff)-1),
	}
}

// loadSnapshot fills the scorer's effective resource views from snap,
// applying the degraded-mode substitution for stale nodes. O(nodes),
// allocation-free.
func (s *Scorer) loadSnapshot(snap *monitor.Snapshot) {
	copy(s.avail, snap.AvailCPU)
	copy(s.nic, snap.NICUtil)
	for i, h := range snap.Health {
		if h == monitor.HealthSuspect {
			s.avail[i] = 1.0
			s.nic[i] = 0.0
		}
	}
}

// Energy fully evaluates mapping m under snap, primes the scorer's
// incremental state with it, and returns the predicted execution time. Any
// pending undo history is discarded.
func (s *Scorer) Energy(m Mapping, snap *monitor.Snapshot) (float64, error) {
	if _, err := s.prime(m, snap); err != nil {
		return 0, err
	}
	return s.total, nil
}

// prime is the full evaluation behind Energy, Estimate, and Predict: it
// validates m, loads snap, and scores every entry, leaving the terms in
// r/c, the per-segment maxima in segMax, and their sum in total. anyStale
// reports that a mapped node is HealthSuspect (the degraded-mode trigger).
// Each link's Lc, each row's Θ and each rank's eq. 5 factors are computed
// once; one pass over the entries then multiplies them out.
func (s *Scorer) prime(m Mapping, snap *monitor.Snapshot) (anyStale bool, err error) {
	if len(m) != len(s.m) {
		return false, fmt.Errorf("core: mapping has %d ranks, profile has %d", len(m), len(s.m))
	}
	if err := m.Validate(s.e.Topo); err != nil {
		return false, err
	}
	if anyStale, err = checkNodesUp(m, snap); err != nil {
		return false, err
	}
	s.loadSnapshot(snap)
	copy(s.m, m)
	for i := range s.mult {
		s.mult[i] = 0
	}
	for _, n := range s.m {
		s.mult[n]++
	}
	ix, comm := s.ix, !s.e.ignoreComm
	if comm {
		for l := range ix.links {
			s.linkLat[l] = s.latency(int32(l))
		}
		for row := range s.theta {
			s.theta[row] = s.rowTheta(row)
		}
	}
	for r := range s.rfac {
		s.rfac[r], s.rinv[r] = s.rankFactors(r)
	}
	for f, rk := range ix.rankOf {
		s.r[f], s.c[f] = ix.work[f]*s.rfac[rk]*s.rinv[rk], 0
		if row := ix.rowOf[f]; comm && row >= 0 {
			s.c[f] = s.theta[row] * ix.lambda[f]
		}
	}
	for seg := range s.segMax {
		_, s.segMax[seg] = s.segmentPeak(seg)
	}
	s.total = s.sumSegments()
	s.depth = 0
	s.primed = true
	metricEnergyFull.Inc()
	s.Publish()
	return anyStale, nil
}

// Publish adds the scorer's locally counted Apply, Undo and rescored-term
// events to the process-wide series and resets the local counts. Every
// full evaluation publishes; a search calls it when it ends.
func (s *Scorer) Publish() {
	if s.nDelta != 0 {
		metricEnergyDelta.Add(s.nDelta)
		s.nDelta = 0
	}
	if s.nUndo != 0 {
		metricUndos.Add(s.nUndo)
		s.nUndo = 0
	}
	if s.nTouched != 0 {
		metricDeltaTouched.Add(s.nTouched)
		s.nTouched = 0
	}
}

// critical returns i_M of segment seg: the rank of the entry attaining the
// segment maximum, or -1 for a segment without entries.
func (s *Scorer) critical(seg int) int {
	at, _ := s.segmentPeak(seg)
	if at < 0 {
		return -1
	}
	return int(s.ix.rankOf[at])
}

// staleNodes lists the HealthSuspect nodes of snap that the primed mapping
// uses, in ascending node order.
func (s *Scorer) staleNodes(snap *monitor.Snapshot) []int {
	var stale []int
	for n, h := range snap.Health {
		if h == monitor.HealthSuspect && s.mult[n] > 0 {
			stale = append(stale, n)
		}
	}
	return stale
}

// detail copies the primed state out as Prediction.Segments: one
// []ProcEstimate backing array sliced per segment.
func (s *Scorer) detail() []SegmentEstimate {
	procs := make([]ProcEstimate, len(s.ix.rankOf))
	for f, rk := range s.ix.rankOf {
		procs[f] = ProcEstimate{Rank: int(rk), R: s.r[f], C: s.c[f], Lambda: s.ix.lambda[f]}
	}
	segs := make([]SegmentEstimate, len(s.segMax))
	for seg := range segs {
		lo, hi := s.ix.segOff[seg], s.ix.segOff[seg+1]
		segs[seg] = SegmentEstimate{
			Name:     s.e.Prof.Segments[seg].Name,
			Seconds:  s.segMax[seg],
			Critical: s.critical(seg),
			Procs:    procs[lo:hi:hi],
		}
	}
	return segs
}

// EnergyNow returns the energy of the scorer's current state.
func (s *Scorer) EnergyNow() float64 { return s.total }

// Current exposes the scorer's current mapping as a read-only view: the
// caller must not modify or retain it across Apply/Undo/Energy calls.
func (s *Scorer) Current() Mapping { return s.m }

// NodeLoad reports how many ranks the current mapping places on a node —
// the capacity check move proposers need.
func (s *Scorer) NodeLoad(node int) int { return s.mult[node] }

// Apply applies the move to the current state, re-scores only the affected
// entries, and returns the new total energy; Undo reverts it. Apply panics
// if the scorer was never primed with Energy or if the move references an
// invalid rank or node.
func (s *Scorer) Apply(mv Move) float64 {
	if !s.primed {
		panic("core: Scorer.Apply before Energy")
	}
	s.nDelta++
	fr := s.pushFrame(mv)
	// Under ignoreComm every C term is zero, so only R terms can change:
	// the communication dependents are left out of the touch set.
	comm := !s.e.ignoreComm
	if mv.Swap {
		if mv.A == mv.B || s.m[mv.A] == s.m[mv.B] {
			fr.noop = true
			return s.total
		}
		fr.from, fr.fromB = s.m[mv.A], s.m[mv.B]
		s.m[mv.A], s.m[mv.B] = s.m[mv.B], s.m[mv.A]
		// A swap preserves per-node multiplicities: only the two ranks'
		// own terms and their communication dependents change.
		s.beginTouch()
		if comm {
			// A link between A and B is recomputed and journaled twice;
			// Undo's reverse order still restores its first saved value.
			s.relink(fr, s.ix.rankLinks[mv.A])
			s.relink(fr, s.ix.rankLinks[mv.B])
			s.touchList(s.ix.commDeps[mv.A])
			s.touchList(s.ix.commDeps[mv.B])
		}
		s.touchList(s.ix.own[mv.A])
		s.touchList(s.ix.own[mv.B])
	} else {
		from := s.m[mv.Rank]
		if from == mv.To {
			fr.noop = true
			return s.total
		}
		if mv.To < 0 || mv.To >= s.ix.nodes {
			panic(fmt.Sprintf("core: Move to invalid node %d", mv.To))
		}
		fr.from = from
		s.m[mv.Rank] = mv.To
		s.mult[from]--
		s.mult[mv.To]++
		s.beginTouch()
		if comm {
			s.relink(fr, s.ix.rankLinks[mv.Rank])
			s.touchList(s.ix.commDeps[mv.Rank])
		}
		// Multiplicity changed on both nodes: every rank now (or formerly)
		// co-located there — the moved rank included — sees a different
		// ACPU share in eq. 5.
		for rank, node := range s.m {
			if node == from || node == mv.To {
				s.touchList(s.ix.own[rank])
			}
		}
	}
	s.rescoreTouched(fr)
	return s.total
}

// Undo reverts the most recent un-undone Apply. Applies form a stack, so
// recursive searches (the exhaustive walk) can unwind arbitrarily deep.
func (s *Scorer) Undo() {
	if s.depth == 0 {
		panic("core: Scorer.Undo with empty journal")
	}
	s.nUndo++
	s.depth--
	fr := &s.frames[s.depth]
	if fr.noop {
		return
	}
	if fr.mv.Swap {
		s.m[fr.mv.A], s.m[fr.mv.B] = fr.from, fr.fromB
	} else {
		s.mult[fr.mv.To]--
		s.mult[fr.from]++
		s.m[fr.mv.Rank] = fr.from
	}
	for i := len(fr.links) - 1; i >= 0; i-- {
		s.linkLat[fr.links[i].l] = fr.links[i].lat
	}
	for _, st := range fr.terms {
		s.r[st.f] = st.r
		s.c[st.f] = st.c
	}
	copy(s.segMax, fr.segMax)
	s.total = fr.total
}

// Commit discards the undo record of the most recent Apply, keeping its
// state change. Accepting annealers call it after each accepted move so the
// journal stays one frame deep instead of growing with every acceptance.
func (s *Scorer) Commit() {
	if s.depth == 0 {
		panic("core: Scorer.Commit with empty journal")
	}
	s.depth--
}

func (s *Scorer) pushFrame(mv Move) *frame {
	if s.depth == len(s.frames) {
		s.frames = append(s.frames, frame{})
	}
	fr := &s.frames[s.depth]
	s.depth++
	fr.mv = mv
	fr.noop = false
	fr.links = fr.links[:0]
	fr.terms = fr.terms[:0]
	fr.segMax = append(fr.segMax[:0], s.segMax...)
	fr.total = s.total
	return fr
}

func (s *Scorer) beginTouch() {
	s.epoch++
	if s.epoch == 0 { // wrapped: reset stamps
		for i := range s.seenEntry {
			s.seenEntry[i] = 0
		}
		for i := range s.seenSeg {
			s.seenSeg[i] = 0
		}
		s.epoch = 1
	}
	s.touched = s.touched[:0]
}

func (s *Scorer) touchList(fs []int32) {
	for _, f := range fs {
		if s.seenEntry[f] != s.epoch {
			s.seenEntry[f] = s.epoch
			s.touched = append(s.touched, f)
		}
	}
}

// relink recomputes the Lc of every listed link from the current mapping,
// recording the old values in the undo frame.
func (s *Scorer) relink(fr *frame, ls []int32) {
	for _, l := range ls {
		fr.links = append(fr.links, savedLink{l: l, lat: s.linkLat[l]})
		s.linkLat[l] = s.latency(l)
	}
}

// rescoreTouched recomputes R and C for every touched entry (recording the
// old values in the undo frame), refreshes the maxima of the segments they
// belong to, and rebuilds the total as the fresh segment sum — the same
// summation order as Predict, keeping the running energy bit-identical.
func (s *Scorer) rescoreTouched(fr *frame) {
	s.nTouched += uint64(len(s.touched))
	for _, f := range s.touched {
		fr.terms = append(fr.terms, savedTerm{f: f, r: s.r[f], c: s.c[f]})
		s.r[f] = s.computeR(f)
		s.c[f] = s.computeC(f)
		seg := s.segmentOf(f)
		s.seenSeg[seg] = s.epoch
	}
	for seg := range s.segMax {
		if s.seenSeg[seg] == s.epoch {
			_, s.segMax[seg] = s.segmentPeak(seg)
		}
	}
	s.total = s.sumSegments()
}

// segmentOf locates the segment containing flat entry f by binary search
// over the offset table.
func (s *Scorer) segmentOf(f int32) int {
	lo, hi := 0, len(s.ix.segOff)-1
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if int32(s.ix.segOff[mid]) <= f {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// segmentPeak scans one segment's totals in entry order with a
// strictly-greater selection, so the first entry wins ties; it returns the
// flat index of the winner and its total, S_M of eq. 4, or (-1, 0)
// without entries.
func (s *Scorer) segmentPeak(seg int) (at int, max float64) {
	lo, hi := s.ix.segOff[seg], s.ix.segOff[seg+1]
	if lo == hi {
		return -1, 0
	}
	at, max = lo, s.r[lo]+s.c[lo]
	for f := lo + 1; f < hi; f++ {
		if t := s.r[f] + s.c[f]; t > max {
			at, max = f, t
		}
	}
	return at, max
}

func (s *Scorer) sumSegments() float64 {
	total := 0.0
	for _, sm := range s.segMax {
		total += sm
	}
	return total
}

// computeR is R_i of eq. 5 on precomputed tables.
func (s *Scorer) computeR(f int32) float64 {
	fac, inv := s.rankFactors(int(s.ix.rankOf[f]))
	return s.ix.work[f] * fac * inv
}

// rankFactors returns eq. 5's two factors for rank r on its current node:
// Speed_profile/Speed_j and 1/ACPU_j, ACPU_j scaled by the node's CPU
// share among its co-located ranks and floored at 0.01.
func (s *Scorer) rankFactors(r int) (fac, inv float64) {
	node := s.m[r]
	acpu := s.avail[node]
	if co := s.mult[node]; co > 1 {
		share := float64(s.ix.cpus[node]) / float64(co)
		if share < 1 {
			acpu *= share
		}
	}
	if acpu < 0.01 {
		acpu = 0.01
	}
	return s.ix.profSpeed[r] / s.ix.speed[node], 1 / acpu
}

// computeC is C_i = λ_i · Θ_i (eqs. 6 and 8) on the entry's row, summed
// from the current links.
func (s *Scorer) computeC(f int32) float64 {
	row := s.ix.rowOf[f]
	if s.e.ignoreComm || row < 0 {
		return 0
	}
	return s.rowTheta(int(row)) * s.ix.lambda[f]
}

// rowTheta is Θ of eq. 6 for one row, Lc being the load-adjusted latency
// estimate of the network model read from the scorer's per-link values;
// it accumulates in profile.Theta's order (receives, then sends).
func (s *Scorer) rowTheta(row int) float64 {
	ix := s.ix
	lo, hi := ix.rowOff[row], ix.rowOff[row+1]
	links, counts := ix.rowLink[lo:hi], ix.rowCount[lo:hi]
	theta := 0.0
	for j, l := range links {
		theta += counts[j] * s.linkLat[l]
	}
	return theta
}

// latency is Lc of link li — between its endpoints' current nodes, at its
// size — read off the class's table row: the same operations in the same
// order as netmodel.Class.Latency, so every value is bit-identical to the
// model's, without re-deriving Curve.At per call.
func (s *Scorer) latency(li int32) float64 {
	ix := s.ix
	ln := ix.links[li]
	src, dst := s.m[ln.src], s.m[ln.dst]
	var id int
	if tbl := ix.classTbl; tbl != nil {
		id = int(tbl[src*ix.nodes+dst])
	} else {
		id = ix.topo.ClassID(src, dst)
	}
	if ix.classes[id] == nil {
		// Same failure mode as Model.Latency on an uncalibrated pair.
		panic(fmt.Sprintf("netmodel: no calibration for pair (%d,%d)", src, dst))
	}
	row := id*ix.sizes + int(ln.k)
	l := ix.lat[row]
	if a := s.avail[src]; a > 0 && a < 1 {
		l += ix.csend[id] * (1/a - 1)
	}
	if a := s.avail[dst]; a > 0 && a < 1 {
		l += ix.crecv[id] * (1/a - 1)
	}
	if wire := ix.wire[row]; wire > 0 {
		l += wire * (netmodel.QueueFactor(s.nic[src]) + netmodel.QueueFactor(s.nic[dst]))
	}
	return l
}

// Energy scores the mapping through a pooled scratch arena and returns only
// the total, without allocating. The evaluator stays shareable — concurrent
// callers draw distinct scorers from the pool.
func (e *Evaluator) Energy(m Mapping, snap *monitor.Snapshot) (float64, error) {
	s := e.pooledScorer(&e.pool, e.fastIx)
	en, err := s.Energy(m, snap)
	e.pool.Put(s)
	return en, err
}

// pooledScorer draws a scratch scorer over ix from pool, which holds only
// scorers over ix; the caller returns it with pool.Put.
func (e *Evaluator) pooledScorer(pool *sync.Pool, ix *fastIndex) *Scorer {
	if s, _ := pool.Get().(*Scorer); s != nil {
		return s
	}
	return e.scorerOn(ix)
}

// Package mpisim executes MPI-like parallel programs on the virtual
// cluster: each rank is a simulated process on its mapped node, exchanging
// messages through internal/simnet with LAM/MPI-style blocking,
// standard-mode semantics (eager below a threshold, rendezvous above), and
// collectives built over point-to-point.
//
// While a program runs, an internal/trace.Recorder classifies every rank's
// time into the paper's three buckets — running application code (X),
// executing message-passing library code (O), and blocked on communication
// (B) — and aggregates per-peer same-size message groups. The resulting
// trace is exactly what the CBES application-profiling subsystem consumes.
//
// Per-message software overheads are charged to the node CPUs, so CPU load
// (background processes or co-located ranks) inflates end-to-end latency,
// which is the load effect the CBES latency model corrects for.
package mpisim

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"cbes/internal/cluster"
	"cbes/internal/des"
	"cbes/internal/simnet"
	"cbes/internal/trace"
	"cbes/internal/vcluster"
)

// EagerThreshold is the message size at and below which sends are
// eager (buffered): the sender proceeds once the message is injected.
// Larger messages use a rendezvous protocol and block the sender until the
// transfer completes.
const EagerThreshold int64 = 64 << 10

// rtsSize is the size of the rendezvous request-to-send control message.
const rtsSize int64 = 64

// Options configures a program execution.
type Options struct {
	// ArchEff maps architecture -> application-specific efficiency
	// multiplier on top of the architecture's base speed (cache fit,
	// vectorization, ...). Missing entries default to 1.0.
	ArchEff map[cluster.Arch]float64
	// AppName labels the trace.
	AppName string
	// RecordIntervals retains the full per-rank state timeline in the
	// trace (for XMPI-style visualization); off by default.
	RecordIntervals bool
}

// Result summarises one program execution.
type Result struct {
	Trace   *trace.Trace
	Start   des.Time
	End     des.Time
	Elapsed des.Time
}

// World is one running application instance: a set of ranks on mapped
// nodes.
type World struct {
	vc      *vcluster.Cluster
	net     *simnet.Network
	opts    Options
	ranks   []Rank
	rec     *trace.Recorder
	start   des.Time
	end     des.Time
	left    int // ranks still executing
	doneSig des.Signal
}

// message is an in-flight or buffered point-to-point message. Consumed
// messages are recycled through msgPool, so a *message is only valid while
// it sits in an inbox.
type message struct {
	src, dst int
	size     int64
	peer     *Rank // receiving rank (for the pooled delivery callbacks)
	// rendezvous bookkeeping
	rendezvous bool
	sender     *Rank // parked sender (rendezvous only)
	arrived    bool  // payload fully delivered
}

// msgPool recycles message records across sends, worlds, and trials. Sharing
// it across engines is safe: messages carry no engine state once freed.
var msgPool = sync.Pool{New: func() any { return new(message) }}

func allocMsg() *message { return msgPool.Get().(*message) }

func freeMsg(m *message) {
	m.peer, m.sender = nil, nil
	m.rendezvous, m.arrived = false, false
	msgPool.Put(m)
}

// eagerArrived fires when an eager payload reaches the receiver's node.
func eagerArrived(a any) {
	m := a.(*message)
	m.arrived = true
	m.peer.tryWake(m.src)
}

// rtsArrived fires when a rendezvous request-to-send reaches the receiver:
// only then is the message announced in the inbox.
func rtsArrived(a any) {
	m := a.(*message)
	m.peer.enqueue(m)
	m.peer.tryWake(m.src)
}

// payloadArrived fires when a pulled rendezvous payload completes.
func payloadArrived(a any) {
	m := a.(*message)
	m.arrived = true
	m.peer.tryWake(-2) // wake the dedicated wait in pullRendezvous
}

// Rank is one process of the application. Program bodies receive their Rank
// and use its methods exclusively; all methods block in simulated time.
type Rank struct {
	w    *World
	id   int
	node int
	cpu  *vcluster.CPU
	proc *des.Proc
	rate float64
	ai   cluster.ArchInfo

	inbox   []srcQueue // arrived/announced messages, one queue per source heard from
	waitSrc int        // source a pending Recv waits on, -1 if none
}

// srcQueue holds the messages from one source in send order: q[head:]
// wait, and a drained queue starts again at the front of its storage.
type srcQueue struct {
	src  int
	head int
	q    []*message
}

// first returns the oldest waiting message, or nil.
func (sq *srcQueue) first() *message {
	if sq.head < len(sq.q) {
		return sq.q[sq.head]
	}
	return nil
}

// pop drops the oldest waiting message.
func (sq *srcQueue) pop() {
	sq.q[sq.head] = nil
	if sq.head++; sq.head == len(sq.q) {
		sq.q, sq.head = sq.q[:0], 0
	}
}

// A world starts each rank with room for queues from inboxSources sources
// and queueDepth messages in each, all carved from two arrays per Launch; a
// rank that hears from more sources, or falls further behind one, grows its
// own. A rank of a 2D halo exchange hears from four.
const (
	inboxSources = 4
	queueDepth   = 2
)

// from returns the queue of messages from src, or nil if src has not been
// heard from. A rank hears from few sources (4 in a 256-rank halo), so the
// inbox is a short slice scanned linearly, not a table of every rank. The
// pointer is good only until the rank next blocks: an arrival from a new
// source may grow the slice meanwhile.
func (r *Rank) from(src int) *srcQueue {
	for i := range r.inbox {
		if r.inbox[i].src == src {
			return &r.inbox[i]
		}
	}
	return nil
}

// enqueue appends m to the queue of its source, first contact taking the
// next slot (and its storage) of the inbox.
func (r *Rank) enqueue(m *message) {
	sq := r.from(m.src)
	if sq == nil {
		r.inbox = slices.Grow(r.inbox, 1)
		r.inbox = r.inbox[:len(r.inbox)+1]
		sq = &r.inbox[len(r.inbox)-1]
		sq.src = m.src
	}
	sq.q = append(sq.q, m)
}

// Launch creates a world for body on the given mapping (rank -> node) and
// starts all ranks at the current simulated time. Use Run for the common
// run-to-completion case.
func Launch(vc *vcluster.Cluster, net *simnet.Network, mapping []int, body func(*Rank), opts Options) *World {
	if len(mapping) == 0 {
		panic("mpisim: empty mapping")
	}
	name := opts.AppName
	if name == "" {
		name = "app"
	}
	n := len(mapping)
	w := &World{
		vc:    vc,
		net:   net,
		opts:  opts,
		start: vc.Eng.Now(),
		left:  n,
		ranks: make([]Rank, n),
	}
	w.rec = trace.NewRecorder(name, vc.Topo.Name, mapping, vc.Eng.Now)
	if opts.RecordIntervals {
		w.rec.EnableIntervals()
	}
	queues := make([]srcQueue, n*inboxSources)
	msgs := make([]*message, len(queues)*queueDepth)
	for i := range queues {
		queues[i].q = msgs[i*queueDepth : i*queueDepth : (i+1)*queueDepth]
	}
	names := procNames(name, n)
	for i, node := range mapping {
		if node < 0 || node >= vc.Topo.NumNodes() {
			panic(fmt.Sprintf("mpisim: rank %d mapped to invalid node %d", i, node))
		}
		nd := vc.Topo.Node(node)
		eff := 1.0
		if opts.ArchEff != nil {
			if v, ok := opts.ArchEff[nd.Arch]; ok {
				eff = v
			}
		}
		r := &w.ranks[i]
		*r = Rank{
			w:       w,
			id:      i,
			node:    node,
			cpu:     vc.CPU(node),
			rate:    nd.Speed * eff,
			ai:      cluster.DefaultArchInfo(nd.Arch),
			inbox:   queues[i*inboxSources : i*inboxSources : (i+1)*inboxSources],
			waitSrc: -1,
		}
		r.proc = vc.Eng.Spawn(names[i], func(*des.Proc) {
			w.rec.SetState(r.id, trace.StateRun)
			body(r)
			w.rankDone()
		})
	}
	return w
}

// procNames spells the rank processes' names, "<app>.r<rank>", into one
// buffer.
func procNames(app string, n int) []string {
	var b strings.Builder
	b.Grow(n * (len(app) + len(".r") + len(strconv.Itoa(n))))
	var digits [20]byte
	names := make([]string, n)
	for i := range names {
		start := b.Len()
		b.WriteString(app)
		b.WriteString(".r")
		b.Write(strconv.AppendInt(digits[:0], int64(i), 10))
		names[i] = b.String()[start:]
	}
	return names
}

func (w *World) rankDone() {
	w.left--
	if w.left == 0 {
		w.end = w.vc.Eng.Now()
		w.doneSig.Broadcast()
	}
}

// Done reports whether every rank has finished.
func (w *World) Done() bool { return w.left == 0 }

// WaitIn parks the given simulated process until the world completes
// (returns immediately if it already has), for daemons that supervise
// application runs.
func (w *World) WaitIn(p *des.Proc) {
	if w.Done() {
		return
	}
	w.doneSig.Wait(p)
}

// Result assembles the result of a completed world (panics if unfinished);
// use after WaitIn when driving the engine externally.
func (w *World) Result() *Result {
	if !w.Done() {
		panic("mpisim: Result of unfinished world")
	}
	return &Result{
		Trace:   w.rec.Finish(),
		Start:   w.start,
		End:     w.end,
		Elapsed: w.end - w.start,
	}
}

// Wait drives the engine until the world completes, then returns the
// result. Other simulation activity (monitors, background load) proceeds
// concurrently.
func (w *World) Wait() *Result {
	eng := w.vc.Eng
	for !w.Done() {
		if !eng.Step(des.MaxTime) {
			panic("mpisim: simulation deadlock: event queue empty with ranks unfinished")
		}
	}
	return w.Result()
}

// Run executes body on the mapping to completion and returns the result.
func Run(vc *vcluster.Cluster, net *simnet.Network, mapping []int, body func(*Rank), opts Options) *Result {
	return Launch(vc, net, mapping, body, opts).Wait()
}

// engPool recycles engines (and their warm event free lists) across
// RunAlone calls; des.Engine.Reset restores the freshly-constructed state.
var engPool = sync.Pool{New: func() any { return des.NewEngine() }}

// RunAlone runs body once on a fresh instance of topo — its own engine,
// idle CPUs and network, under background load bg — and tears the instance
// down. It is the one measurement procedure predictions are checked
// against. A mapped node outside the topology, or a bg that Apply rejects,
// is an error.
func RunAlone(topo *cluster.Topology, bg vcluster.Background, mapping []int, body func(*Rank), opts Options) (*Result, error) {
	if len(mapping) == 0 {
		return nil, fmt.Errorf("mpisim: empty mapping")
	}
	for i, node := range mapping {
		if node < 0 || node >= topo.NumNodes() {
			return nil, fmt.Errorf("mpisim: rank %d mapped to invalid node %d", i, node)
		}
	}
	eng := engPool.Get().(*des.Engine)
	vc := vcluster.New(eng, topo)
	net := simnet.New(eng, topo)
	if err := bg.Apply(vc); err != nil {
		engPool.Put(eng) // Apply scheduled nothing
		return nil, err
	}
	res := Run(vc, net, mapping, body, opts)
	eng.Shutdown()
	eng.Reset()
	engPool.Put(eng)
	return res, nil
}

// ID reports the calling process's rank.
func (r *Rank) ID() int { return r.id }

// Size reports the number of ranks in the world.
func (r *Rank) Size() int { return len(r.w.ranks) }

// NodeID reports the cluster node this rank executes on.
func (r *Rank) NodeID() int { return r.node }

// Arch reports the architecture of this rank's node.
func (r *Rank) Arch() cluster.Arch { return r.w.vc.Topo.Node(r.node).Arch }

// Now reports the current simulated time.
func (r *Rank) Now() des.Time { return r.proc.Now() }

// Compute executes `refSeconds` of application computation (time the work
// takes on the reference architecture at full availability). Elapsed
// simulated time grows with slower architectures, background load, and CPU
// sharing.
func (r *Rank) Compute(refSeconds float64) {
	if refSeconds <= 0 {
		return
	}
	r.w.rec.SetState(r.id, trace.StateRun)
	r.cpu.Compute(r.proc, refSeconds, r.rate)
	r.w.rec.SetState(r.id, trace.StateRun)
}

// overhead charges d of message-passing library CPU time (at dedicated-CPU
// rate 1.0; load and sharing stretch it).
func (r *Rank) overhead(d des.Time) {
	if d <= 0 {
		return
	}
	r.w.rec.SetState(r.id, trace.StateOverhead)
	r.cpu.Compute(r.proc, d.Seconds(), 1.0)
}

// block parks the rank in the Blocked state until woken.
func (r *Rank) block() {
	r.w.rec.SetState(r.id, trace.StateBlocked)
	r.proc.Park()
}

// Send transmits size bytes to rank dst with blocking standard-mode
// semantics: eager below the threshold (returns after injection),
// rendezvous above (returns when the payload has been delivered).
func (r *Rank) Send(dst int, size int64) {
	if dst == r.id {
		panic("mpisim: send to self")
	}
	if size < 0 {
		panic("mpisim: negative message size")
	}
	peer := &r.w.ranks[dst]
	r.w.rec.RecordSend(r.id, dst, size)
	r.w.rec.RecordRecv(dst, r.id, size)
	r.overhead(r.ai.SendOverhead)

	m := allocMsg()
	m.src, m.dst, m.size, m.peer = r.id, dst, size, peer

	if size <= EagerThreshold {
		r.w.net.DeliverArg(r.node, peer.node, size, eagerArrived, m)
		peer.enqueue(m)
		r.w.rec.SetState(r.id, trace.StateRun)
		return
	}

	// Rendezvous: announce with an RTS, then the receiver pulls the payload;
	// the sender blocks until delivery completes.
	m.rendezvous = true
	m.sender = r
	r.w.net.DeliverArg(r.node, peer.node, rtsSize, rtsArrived, m)
	r.block() // woken by completeRendezvous
	r.w.rec.SetState(r.id, trace.StateRun)
}

// tryWake unblocks a Recv waiting on src, if any.
func (r *Rank) tryWake(src int) {
	if r.waitSrc == src {
		r.waitSrc = -1
		r.proc.Unpark()
	}
}

// Recv blocks until a message from rank src is available and consumed.
// Messages from one source are consumed in send order. It returns the
// message size.
func (r *Rank) Recv(src int) int64 {
	if src == r.id {
		panic("mpisim: recv from self")
	}
	if src < 0 || src >= len(r.w.ranks) {
		panic(fmt.Sprintf("mpisim: recv from invalid rank %d", src))
	}
	for {
		// Looked up afresh each time round: see Rank.from.
		if sq := r.from(src); sq != nil {
			if m := sq.first(); m != nil && (m.rendezvous || m.arrived) {
				sq.pop()
				if m.rendezvous {
					r.pullRendezvous(m)
				}
				size := m.size
				freeMsg(m)
				r.overhead(r.ai.RecvOverhead)
				r.w.rec.SetState(r.id, trace.StateRun)
				return size
			}
		}
		// Nothing consumable yet: wait for the next arrival from src.
		r.waitSrc = src
		r.block()
	}
}

// pullRendezvous performs the payload transfer of an announced rendezvous
// message, blocking the receiver until delivery, then releasing the sender.
func (r *Rank) pullRendezvous(m *message) {
	sender := m.sender
	r.w.net.DeliverArg(sender.node, r.node, m.size, payloadArrived, m)
	for !m.arrived {
		r.waitSrc = -2
		r.block()
	}
	// Payload delivered: release the blocked sender.
	sender.proc.Unpark()
}

// SendRecv exchanges messages with peer, ordering the two blocking halves
// by rank parity to avoid rendezvous deadlock (the standard MPI trick for
// pairwise exchanges).
func (r *Rank) SendRecv(peer int, sendSize, recvSize int64) {
	if r.id < peer {
		r.Send(peer, sendSize)
		r.Recv(peer)
	} else {
		r.Recv(peer)
		r.Send(peer, sendSize)
	}
	_ = recvSize // sizes are symmetric in all call sites; kept for clarity
}

// Phase inserts a LAM-style phase marker: a barrier followed (on rank 0) by
// opening a new trace segment, so per-phase profiles can be extracted.
func (r *Rank) Phase(name string) {
	r.Barrier()
	if r.id == 0 {
		r.w.rec.BeginSegment(name)
	}
	r.Barrier()
}

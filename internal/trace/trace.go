// Package trace defines execution traces for MPI-like applications, in the
// spirit of the LAM/MPI + XMPI traces the paper's profiling subsystem
// consumes: per-process accounting of the three state classes (running own
// code, executing message-passing library code, blocked on communication)
// and per-peer same-size message groups, organised into named segments
// delimited by the application's phase markers.
package trace

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"cbes/internal/des"
)

// State classifies what a process is doing at an instant.
type State int

// The three state classes of an application process (§2 of the paper):
// Run accumulates into X_i, Overhead into O_i, Blocked into B_i.
const (
	StateRun State = iota
	StateOverhead
	StateBlocked
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateRun:
		return "run"
	case StateOverhead:
		return "overhead"
	case StateBlocked:
		return "blocked"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// MsgGroup aggregates same-size messages exchanged with one peer — the
// mgS/mgR sets of eq. 6.
type MsgGroup struct {
	Peer  int   `json:"peer"`  // the other process's rank
	Size  int64 `json:"size"`  // bytes per message
	Count int   `json:"count"` // number of messages
}

// ProcTrace is the per-process summary within one segment.
type ProcTrace struct {
	Rank     int      `json:"rank"`
	Node     int      `json:"node"` // node the process ran on
	Run      des.Time `json:"run"`
	Overhead des.Time `json:"overhead"`
	Blocked  des.Time `json:"blocked"`
	// Sends[k] groups messages sent to peer k; Recvs likewise, sorted by
	// (Peer, Size).
	Sends []MsgGroup `json:"sends"`
	Recvs []MsgGroup `json:"recvs"`
}

// Busy returns total accounted time (Run + Overhead + Blocked).
func (p *ProcTrace) Busy() des.Time { return p.Run + p.Overhead + p.Blocked }

// Segment is the trace of one application phase (delimited by the LAM-style
// phase markers).
type Segment struct {
	Name  string      `json:"name"`
	Start des.Time    `json:"start"`
	End   des.Time    `json:"end"`
	Procs []ProcTrace `json:"procs"`
}

// Duration is the segment's wall-clock length.
func (s *Segment) Duration() des.Time { return s.End - s.Start }

// Trace is a complete application execution record.
type Trace struct {
	App      string    `json:"app"`
	Cluster  string    `json:"cluster"`
	Ranks    int       `json:"ranks"`
	Mapping  []int     `json:"mapping"` // rank -> node
	Start    des.Time  `json:"start"`
	End      des.Time  `json:"end"`
	Segments []Segment `json:"segments"`
	// Intervals holds the per-rank state timeline when the recorder had
	// interval retention enabled (Recorder.EnableIntervals); nil otherwise.
	Intervals [][]Interval `json:"intervals,omitempty"`
}

// Duration is the application's wall-clock execution time.
func (t *Trace) Duration() des.Time { return t.End - t.Start }

// Encode writes the trace as JSON.
func (t *Trace) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(t)
}

// Decode reads a JSON trace.
func Decode(r io.Reader) (*Trace, error) {
	var t Trace
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	return &t, nil
}

// Recorder accumulates a Trace while an application executes. It is driven
// by internal/mpisim; all methods must be called from engine context with
// monotonically nondecreasing timestamps.
type Recorder struct {
	app     string
	cluster string
	mapping []int
	start   des.Time
	now     func() des.Time

	segments []Segment
	segOpen  bool
	segName  string
	segStart des.Time

	state     []State
	stateFrom []des.Time
	acc       [][3]des.Time // per rank, per state, within current segment
	// sends[i] and recvs[i] are rank i's message groups in the open segment,
	// in order of first message; closing the segment sorts them into it.
	sends, recvs [][]MsgGroup
	intervals    [][]Interval // non-nil only after EnableIntervals
}

// groupsPerRank is how many send groups, and how many receive groups, each
// rank starts a segment with room for: one array per segment holds them
// all, and a rank that talks to more peers grows its own slice. A rank of a
// 2D halo exchange talks to four.
const groupsPerRank = 4

// NewRecorder starts recording an execution of app on the given mapping.
// The now function supplies the current simulated time.
func NewRecorder(app, clusterName string, mapping []int, now func() des.Time) *Recorder {
	n := len(mapping)
	r := &Recorder{
		app:     app,
		cluster: clusterName,
		mapping: append([]int(nil), mapping...),
		start:   now(),
		now:     now,
	}
	r.state = make([]State, n)
	r.stateFrom = make([]des.Time, n)
	r.acc = make([][3]des.Time, n)
	r.sends = make([][]MsgGroup, n)
	r.recvs = make([][]MsgGroup, n)
	r.BeginSegment("main")
	return r
}

// BeginSegment closes any open segment and opens a new one. Application
// phase markers map to calls of this method.
func (r *Recorder) BeginSegment(name string) {
	if r.segOpen {
		r.closeSegment()
	}
	now := r.now()
	r.segOpen = true
	r.segName = name
	r.segStart = now
	for i := range r.stateFrom {
		r.stateFrom[i] = now
	}
	clear(r.acc)
	const k = groupsPerRank
	groups := make([]MsgGroup, 2*k*len(r.mapping))
	for i := range r.sends {
		g := groups[2*k*i:]
		r.sends[i], r.recvs[i] = g[:0:k], g[k:k:2*k]
	}
}

func (r *Recorder) closeSegment() {
	now := r.now()
	seg := Segment{Name: r.segName, Start: r.segStart, End: now, Procs: make([]ProcTrace, len(r.mapping))}
	for rank := range r.mapping {
		// Flush the in-progress state interval.
		r.flush(rank, now)
		seg.Procs[rank] = ProcTrace{
			Rank:     rank,
			Node:     r.mapping[rank],
			Run:      r.acc[rank][StateRun],
			Overhead: r.acc[rank][StateOverhead],
			Blocked:  r.acc[rank][StateBlocked],
			Sends:    sortGroups(r.sends[rank]),
			Recvs:    sortGroups(r.recvs[rank]),
		}
	}
	r.segments = append(r.segments, seg)
	r.segOpen = false
}

// sortGroups orders a rank's groups by (Peer, Size). The groups are carved
// from an array, so even an empty list is non-nil and encodes as [].
func sortGroups(gs []MsgGroup) []MsgGroup {
	slices.SortFunc(gs, func(a, b MsgGroup) int {
		if c := cmp.Compare(a.Peer, b.Peer); c != 0 {
			return c
		}
		return cmp.Compare(a.Size, b.Size)
	})
	return gs
}

// count adds one message to the (peer, size) group of gs. A rank talks to
// few peers, so the scan is short; an all-to-all pays O(peers) a message.
func count(gs []MsgGroup, peer int, size int64) []MsgGroup {
	for i := range gs {
		if gs[i].Peer == peer && gs[i].Size == size {
			gs[i].Count++
			return gs
		}
	}
	return append(gs, MsgGroup{Peer: peer, Size: size, Count: 1})
}

func (r *Recorder) flush(rank int, now des.Time) {
	d := now - r.stateFrom[rank]
	if d > 0 {
		r.acc[rank][r.state[rank]] += d
		r.appendInterval(rank, r.state[rank], r.stateFrom[rank], now)
	}
	r.stateFrom[rank] = now
}

// SetState marks a state transition for rank at the current time.
func (r *Recorder) SetState(rank int, s State) {
	r.flush(rank, r.now())
	r.state[rank] = s
}

// RecordSend adds one message of the given size from rank to peer.
func (r *Recorder) RecordSend(rank, peer int, size int64) {
	r.sends[rank] = count(r.sends[rank], peer, size)
}

// RecordRecv adds one received message of the given size from peer to rank.
func (r *Recorder) RecordRecv(rank, peer int, size int64) {
	r.recvs[rank] = count(r.recvs[rank], peer, size)
}

// Finish closes the open segment and returns the completed trace.
func (r *Recorder) Finish() *Trace {
	if r.segOpen {
		r.closeSegment()
	}
	return &Trace{
		App:       r.app,
		Cluster:   r.cluster,
		Ranks:     len(r.mapping),
		Mapping:   r.mapping,
		Start:     r.start,
		End:       r.now(),
		Segments:  r.segments,
		Intervals: r.intervals,
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one interval at a layer boundary the harness can reach from
// outside the program. parent indexes the same buffer (-1 for a root);
// op ties the spans of one operation together.
type span struct {
	name       string
	start, end time.Duration // since the tracer's origin
	parent     int
	op         int64
}

// spanBuf holds the spans of one client goroutine, so recording needs
// no lock. A nil *spanBuf is tracing switched off: begin and end are
// no-ops, which is how the untraced pass runs the very same code.
type spanBuf struct {
	origin time.Time
	spans  []span
}

// tracer is the in-memory span store of one traced pass: one buffer per
// client, written out when the run ends.
type tracer struct {
	origin time.Time
	bufs   []*spanBuf
}

func newTracer(clients int) *tracer {
	t := &tracer{origin: time.Now(), bufs: make([]*spanBuf, clients)}
	for i := range t.bufs {
		t.bufs[i] = &spanBuf{origin: t.origin, spans: make([]span, 0, 1<<14)}
	}
	return t
}

// buf returns client c's buffer; a nil tracer yields the nil buffer.
func (t *tracer) buf(c int) *spanBuf {
	if t == nil {
		return nil
	}
	return t.bufs[c]
}

// begin opens a span and returns its index for end and for children.
func (b *spanBuf) begin(name string, parent int, op int64) int {
	if b == nil {
		return -1
	}
	b.spans = append(b.spans, span{name: name, start: time.Since(b.origin), parent: parent, op: op})
	return len(b.spans) - 1
}

func (b *spanBuf) end(id int) {
	if b == nil {
		return
	}
	b.spans[id].end = time.Since(b.origin)
}

// selfTimes returns, per span, its duration minus the part of that
// interval its children cover. Children are clipped to the parent and
// overlapping children are counted once.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].start < spans[ks[b]].start })
		covered := s.start // everything before this instant is accounted for
		for _, k := range ks {
			from, to := spans[k].start, spans[k].end
			if from < covered {
				from = covered
			}
			if to > s.end {
				to = s.end
			}
			if to > from {
				self[i] -= to - from
				covered = to
			}
		}
	}
	return self
}

// layerTime sums a traced pass by span name.
type layerTime struct {
	Count int     `json:"count"`
	Total float64 `json:"total_s"`
	Self  float64 `json:"self_s"`
}

func (t *tracer) byName() map[string]*layerTime {
	out := map[string]*layerTime{}
	for _, b := range t.bufs {
		self := selfTimes(b.spans)
		for i, s := range b.spans {
			lt := out[s.name]
			if lt == nil {
				lt = &layerTime{}
				out[s.name] = lt
			}
			lt.Count++
			lt.Total += (s.end - s.start).Seconds()
			lt.Self += self[i].Seconds()
		}
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events, microsecond timestamps, one track per client), loadable in
// Perfetto or chrome://tracing.
func (t *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := []event{}
	for tid, b := range t.bufs {
		for i, s := range b.spans {
			parent := ""
			if s.parent >= 0 {
				parent = fmt.Sprintf("%d.%d", tid, s.parent)
			}
			events = append(events, event{
				Name: s.name, Ph: "X", Pid: 1, Tid: tid,
				Ts:  float64(s.start.Nanoseconds()) / 1e3,
				Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
				Args: map[string]any{
					"id": fmt.Sprintf("%d.%d", tid, i), "parent": parent, "op_id": s.op,
				},
			})
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}

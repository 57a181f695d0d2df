package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestSelfTimeNestedAndOverlapping(t *testing.T) {
	const ms = time.Millisecond
	spans := []span{
		{name: "op", start: 0, end: 100 * ms, parent: -1},           // 0
		{name: "rpc", start: 10 * ms, end: 60 * ms, parent: 0},      // 1
		{name: "verify", start: 50 * ms, end: 80 * ms, parent: 0},   // 2: overlaps rpc by 10 ms
		{name: "predict", start: 55 * ms, end: 75 * ms, parent: 2},  // 3: nested in verify
		{name: "late", start: 90 * ms, end: 120 * ms, parent: 0},    // 4: runs past its parent
		{name: "inside", start: 20 * ms, end: 30 * ms, parent: 1},   // 5
		{name: "covered", start: 22 * ms, end: 28 * ms, parent: 1},  // 6: wholly inside 5's interval
		{name: "alone", start: 200 * ms, end: 230 * ms, parent: -1}, // 7
	}
	want := []time.Duration{
		20 * ms, // op: 100 − (rpc 10..60 ∪ verify 50..80 = 70) − (late clipped to 90..100 = 10)
		40 * ms, // rpc: 50 − inside 10 (covered adds nothing)
		10 * ms, // verify: 30 − predict 20
		20 * ms, 30 * ms, 10 * ms, 6 * ms, 30 * ms,
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %v, want %v", spans[i].name, got[i], want[i])
		}
	}
}

func TestTracerNilIsOff(t *testing.T) {
	var tr *tracer
	b := tr.buf(0)
	id := b.begin("op", -1, 1)
	b.end(id) // must not panic
	if id != -1 {
		t.Errorf("nil buffer handed out span %d", id)
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	tr := newTracer(2)
	root := tr.buf(1).begin("op", -1, 7)
	child := tr.buf(1).begin("service.rpc.Evaluate", root, 7)
	tr.buf(1).end(child)
	tr.buf(1).end(root)
	var out bytes.Buffer
	if err := tr.writeChrome(&out); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Tid  int
			Args struct {
				ID, Parent string
				OpID       int64 `json:"op_id"`
			}
		}
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("%d events, want 2", len(doc.TraceEvents))
	}
	ev := doc.TraceEvents[1]
	if ev.Name != "service.rpc.Evaluate" || ev.Ph != "X" || ev.Tid != 1 || ev.Args.Parent != "1.0" || ev.Args.OpID != 7 {
		t.Errorf("child event = %+v", ev)
	}
	by := tr.byName()
	if by["op"].Count != 1 || by["op"].Self > by["op"].Total {
		t.Errorf("byName op = %+v", by["op"])
	}
}

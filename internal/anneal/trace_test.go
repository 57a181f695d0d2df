package anneal

import (
	"context"
	"testing"

	"cbes/internal/obs"
)

// A run handed a traced context must record its anneal.run span as a
// child of the caller's span, carrying convergence samples that start
// at the initial evaluation and end at the final best energy.
func TestRunSpanJoinsCallerTrace(t *testing.T) {
	parent := obs.DefaultTracer().Start("test.parent")
	ctx := obs.ContextWithSpan(context.Background(), parent)

	p := &walk{x: 100, energy: func(x int) float64 { d := float64(x - 7); return d * d }}
	bestE, _ := Minimize(Config{Seed: 1, Ctx: ctx}, p.problem())
	parent.End()

	var run *obs.Span
	for _, sp := range obs.DefaultTracer().TraceSpans(parent.TraceID()) {
		if sp.Name == "anneal.run" {
			sp := sp
			run = &sp
		}
	}
	if run == nil {
		t.Fatal("no anneal.run span recorded in the caller's trace")
	}
	if run.Parent == "" {
		t.Fatal("anneal.run span is not parented under the caller's span")
	}
	var conv [][2]float64
	for _, a := range run.Attrs {
		if a.Key == "convergence" {
			conv, _ = a.Val.([][2]float64)
		}
	}
	if len(conv) == 0 {
		t.Fatalf("anneal.run span has no convergence samples: %+v", run.Attrs)
	}
	if conv[0][0] != 1 {
		t.Fatalf("first sample at eval %v, want the initial evaluation", conv[0][0])
	}
	last := conv[len(conv)-1]
	if last[1] != bestE {
		t.Fatalf("last sample energy %v != final best %v", last[1], bestE)
	}
	for i := 1; i < len(conv); i++ {
		if conv[i][1] > conv[i-1][1] || conv[i][0] < conv[i-1][0] {
			t.Fatalf("convergence not monotone: %v", conv)
		}
	}
}

// Without a traced context the run roots its own trace (pre-causal
// behaviour) — and with sampling discarding it, costs nothing visible.
func TestRunSpanRootsWithoutContext(t *testing.T) {
	p := &walk{x: 5, energy: func(x int) float64 { return float64(x * x) }}
	before := len(obs.DefaultTracer().Spans())
	Minimize(Config{Seed: 2, MaxEvaluations: 50}, p.problem())
	spans := obs.DefaultTracer().Spans()
	if len(spans) <= before {
		t.Fatal("no span recorded for an untraced run")
	}
	last := spans[len(spans)-1]
	if last.Name != "anneal.run" || last.Parent != "" || last.Trace == "" {
		t.Fatalf("untraced run span = %+v, want a rooted anneal.run", last)
	}
}

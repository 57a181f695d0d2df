package main

// metricDef declares one metric: BENCHMARK.json repeats name, unit and
// direction (and, for the gated ones, the bound); metrics_test.go keeps
// the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is how far the median may worsen before -compare calls it a
	// regression: a share of the baseline median, or — when Abs is set —
	// a distance in the metric's own unit. Zero means informational.
	Bound float64
	Abs   bool
	// Exact marks a quantity the seed alone determines: its runs differ
	// because their seeds do, not because the host was disturbed.
	Exact bool
	// On lists the workloads that report the metric; nil means all six.
	On []string
}

var (
	svcOnly   = []string{"svc_hot", "svc_cold", "svc_churn"}
	schedOnly = []string{"sched_grove"}
	simOnly   = []string{"sim_grove", "sim_fattree5k"}
	groveOnly = []string{"sim_grove"}
)

// gated are the end-to-end metrics defined on every workload and never
// zero: the ones BENCHMARK.json lists under end_to_end, printed by
// every untraced run. The timing bounds sit at the contract's ceiling:
// on the reference box, a shared virtual machine, the spread between
// ten seeded runs reached 0.19 (README.md, "Reference numbers").
var gated = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.10},
}

// scoped are the end-to-end metrics that exist on some workloads only,
// or that are zero when all is well. The driver wants every gated
// metric from every workload, so these travel in the per_layer list of
// BENCHMARK.json (read 0 where they do not apply); -compare gates them
// with the bounds below on the workloads named in On.
var scoped = []metricDef{
	{Name: "throughput_ops_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25, On: svcOnly},
	{Name: "failed_share", Unit: "share", Better: "lower", Bound: 0.001, Abs: true},
	{Name: "evals_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, On: schedOnly},
	{Name: "quality_gap_pct", Unit: "%", Better: "lower", Bound: 0.1, Abs: true, Exact: true, On: schedOnly},
	{Name: "sim_events_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, On: simOnly},
	{Name: "sim_s_per_wall_s", Unit: "s/s", Better: "higher", Bound: 0.25, On: simOnly},
	{Name: "pred_err_mean_pct", Unit: "%", Better: "lower", Bound: 0.1, Abs: true, Exact: true, On: groveOnly},
	{Name: "pred_within4_pct", Unit: "%", Better: "higher", Bound: 1, Abs: true, Exact: true, On: groveOnly},
}

// layerMetrics are the per-layer numbers of the traced run, named after
// the repo's packages. A workload that does not exercise a layer
// reports 0 for it. README.md says which end-to-end metric each one
// should move, on which workload.
var layerMetrics = []metricDef{
	{Name: "service.wire_us", Unit: "us", Better: "lower"},
	{Name: "service.gob_us", Unit: "us", Better: "lower"},
	{Name: "service.handler_hit_us", Unit: "us", Better: "lower"},
	{Name: "service.handler_miss_us", Unit: "us", Better: "lower"},
	{Name: "service.cache_hit_share", Unit: "share", Better: "higher"},
	{Name: "service.cache_evictions", Unit: "count", Better: "lower"},
	{Name: "service.unattributed_share", Unit: "share", Better: "lower"},
	{Name: "service.advance_us", Unit: "us", Better: "lower"},
	{Name: "service.epochs", Unit: "count", Better: "lower"},
	{Name: "service.view_refresh_us", Unit: "us", Better: "lower"},
	{Name: "service.coalesced", Unit: "count", Better: "lower"},
	{Name: "admission.acquire_ns", Unit: "ns", Better: "lower"},
	{Name: "admission.shed", Unit: "count", Better: "lower"},
	{Name: "admission.brownout", Unit: "count", Better: "lower"},
	{Name: "admission.limit_end", Unit: "count", Better: "higher"},
	{Name: "accuracy.begin_ns", Unit: "ns", Better: "lower"},
	{Name: "accuracy.band_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.span_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.span_allocs", Unit: "count", Better: "lower"},
	{Name: "obs.record_ns", Unit: "ns", Better: "lower"},
	{Name: "core.predict_us", Unit: "us", Better: "lower"},
	{Name: "core.predict_allocs", Unit: "count", Better: "lower"},
	{Name: "core.predict_share", Unit: "share", Better: "lower"},
	{Name: "core.energy_ns", Unit: "ns", Better: "lower"},
	{Name: "core.delta_ns", Unit: "ns", Better: "lower"},
	{Name: "core.brownout_us", Unit: "us", Better: "lower"},
	{Name: "schedule.cs_ms", Unit: "ms", Better: "lower"},
	{Name: "schedule.ncs_ms", Unit: "ms", Better: "lower"},
	{Name: "schedule.ga_ms", Unit: "ms", Better: "lower"},
	{Name: "schedule.rs_ms", Unit: "ms", Better: "lower"},
	{Name: "schedule.evals_per_decision", Unit: "count", Better: "higher"},
	{Name: "schedule.service_overhead_us", Unit: "us", Better: "lower"},
	{Name: "schedule.gap_pct_effort_quarter", Unit: "%", Better: "lower"},
	{Name: "schedule.gap_pct_effort_half", Unit: "%", Better: "lower"},
	{Name: "schedule.gap_pct_effort_double", Unit: "%", Better: "lower"},
	{Name: "monitor.snapshot_ns", Unit: "ns", Better: "lower"},
	{Name: "netmodel.latency_ns", Unit: "ns", Better: "lower"},
	{Name: "des.dispatch_ns", Unit: "ns", Better: "lower"},
	{Name: "des.switch_ns", Unit: "ns", Better: "lower"},
	{Name: "des.events", Unit: "count", Better: "lower"},
	{Name: "des.events_per_op", Unit: "count", Better: "lower"},
	{Name: "mpisim.sendrecv_us", Unit: "us", Better: "lower"},
	{Name: "mpisim.trace_records", Unit: "count", Better: "lower"},
	{Name: "vcluster.compute_ns", Unit: "ns", Better: "lower"},
	{Name: "simnet.deliver_ns_grove", Unit: "ns", Better: "lower"},
	{Name: "simnet.deliver_ns_5k", Unit: "ns", Better: "lower"},
	{Name: "simnet.messages", Unit: "count", Better: "lower"},
	{Name: "simnet.bytes", Unit: "count", Better: "lower"},
	{Name: "cluster.build_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.build_mb", Unit: "MB", Better: "lower"},
	{Name: "cluster.route_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.classes", Unit: "count", Better: "lower"},
	{Name: "cluster.build_share", Unit: "share", Better: "lower"},
	{Name: "sim.unattributed_share", Unit: "share", Better: "lower"},
	{Name: "bench.calibrate_ms", Unit: "ms", Better: "lower"},
	{Name: "profile.pipeline_ms", Unit: "ms", Better: "lower"},
	{Name: "profile.from_trace_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "proc.alloc_kb_per_op", Unit: "kB", Better: "lower"},
	{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "run.slice_spread", Unit: "share", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
}

// appliesTo reports whether workload w reports the metric.
func (m metricDef) appliesTo(w string) bool {
	if m.On == nil {
		return true
	}
	for _, name := range m.On {
		if name == w {
			return true
		}
	}
	return false
}

// endToEnd is every metric a user of the system would see, gated or
// scoped: the thirteen -compare reports on.
func endToEnd() []metricDef { return append(append([]metricDef(nil), gated...), scoped...) }

// perLayer is what a traced run prints: BENCHMARK.json's per_layer list.
func perLayer() []metricDef { return append(append([]metricDef(nil), scoped...), layerMetrics...) }

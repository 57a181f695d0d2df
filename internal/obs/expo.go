// Metric exposition in the Prometheus text format (for /metrics and the
// Metrics RPC), and the debug HTTP mux cbesd mounts.
package obs

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
)

// WritePrometheus renders every family in the Prometheus text exposition
// format (version 0.0.4): HELP/TYPE headers, one line per child, and for
// histograms the cumulative `_bucket{le=...}` series plus `_sum` and
// `_count`. The exposition is rendered into one buffer and written with
// one call; each child's label block is built once for all its lines, and
// each histogram's le values once for all its children.
func (r *Registry) WritePrometheus(w io.Writer) {
	var b, labels []byte
	var les []string
	for _, f := range r.sortedFamilies() {
		if f.help != "" {
			b = append(b, "# HELP "...)
			b = append(b, f.name...)
			b = append(b, ' ')
			b = append(b, escapeHelp(f.help)...)
			b = append(b, '\n')
		}
		b = append(b, "# TYPE "...)
		b = append(b, f.name...)
		b = append(b, ' ')
		b = append(b, f.kind.String()...)
		b = append(b, '\n')
		if f.kind == KindHistogram {
			les = les[:0]
			for _, bound := range f.bounds {
				les = append(les, formatFloat(bound))
			}
		}
		for _, c := range f.sortedChildren() {
			labels = labels[:0]
			for i, n := range f.labels {
				if i > 0 {
					labels = append(labels, ',')
				}
				labels = append(labels, n...)
				labels = append(labels, `="`...)
				labels = append(labels, escapeLabel(c.labelValues[i])...)
				labels = append(labels, '"')
			}
			switch f.kind {
			case KindCounter:
				b = appendSeries(b, f.name, "", labels, "")
				b = strconv.AppendUint(b, c.counter.Value(), 10)
			case KindGauge:
				b = appendSeries(b, f.name, "", labels, "")
				b = append(b, formatFloat(c.gauge.Value())...)
			case KindHistogram:
				cum := uint64(0)
				for i, le := range les {
					cum += c.hist.counts[i].Load()
					b = appendSeries(b, f.name, "_bucket", labels, le)
					b = strconv.AppendUint(b, cum, 10)
					b = append(b, '\n')
				}
				b = appendSeries(b, f.name, "_bucket", labels, "+Inf")
				b = strconv.AppendUint(b, c.hist.Count(), 10)
				b = append(b, '\n')
				b = appendSeries(b, f.name, "_sum", labels, "")
				b = append(b, formatFloat(c.hist.Sum())...)
				b = append(b, '\n')
				b = appendSeries(b, f.name, "_count", labels, "")
				b = strconv.AppendUint(b, c.hist.Count(), 10)
			}
			b = append(b, '\n')
		}
	}
	w.Write(b)
}

// appendSeries appends a sample line's series and the space before its
// value: name, suffix, then the label block {labels} — with le="..."
// last when le is non-empty — or no block at all when both are empty.
func appendSeries(b []byte, name, suffix string, labels []byte, le string) []byte {
	b = append(b, name...)
	b = append(b, suffix...)
	if len(labels) > 0 || le != "" {
		b = append(b, '{')
		b = append(b, labels...)
		if le != "" {
			if len(labels) > 0 {
				b = append(b, ',')
			}
			b = append(b, `le="`...)
			b = append(b, le...)
			b = append(b, '"')
		}
		b = append(b, '}')
	}
	return append(b, ' ')
}

// The escapers are built once: a strings.Replacer costs far more to build
// than to apply, and a scrape escapes every label of every line.
var (
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }

func escapeHelp(s string) string { return helpEscaper.Replace(s) }

// formatFloat renders a float the way Prometheus expects (shortest
// round-trippable form, +Inf/-Inf/NaN spelled out).
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves the registry in Prometheus text format.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// warnError is a probe result that should surface to operators without
// failing the probe: the endpoint stays 200 (traffic keeps flowing) but
// the body carries a "warning:" line for humans and smoke scripts.
type warnError struct{ msg string }

func (w *warnError) Error() string { return w.msg }

// Warnf builds a probe warning. Returned from a live/ready check, it
// keeps the probe passing (HTTP 200) while appending "warning: <text>"
// to the body — for conditions like calibration drift that an operator
// must see but that must not pull the daemon out of rotation.
func Warnf(format string, a ...any) error {
	return &warnError{msg: fmt.Sprintf(format, a...)}
}

// IsWarning reports whether err is (or wraps) a probe warning built by
// Warnf.
func IsWarning(err error) bool {
	var w *warnError
	return errors.As(err, &w)
}

// probeHandler renders one health probe: check() == nil ⇒ 200 "ok", a
// Warnf result ⇒ 200 "ok" plus a warning line, any other error ⇒ 503
// with the error text. A nil check always passes.
func probeHandler(check func() error) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		var warn error
		if check != nil {
			if err := check(); err != nil {
				if !IsWarning(err) {
					http.Error(w, err.Error(), http.StatusServiceUnavailable)
					return
				}
				warn = err
			}
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
		if warn != nil {
			fmt.Fprintf(w, "warning: %s\n", warn.Error())
		}
	}
}

// DebugMux builds the debug-endpoint mux cbesd serves on -debug-listen:
//
//	/metrics     — Prometheus text exposition of reg
//	/debug/spans — recent spans of tr as a JSON array (?n=, ?name=, ?trace=)
//	/debug/trace — one trace tree as Chrome trace-event JSON (?id=)
//	/healthz     — liveness probe; live() == nil ⇒ 200 "ok"
//	/readyz      — readiness probe; ready() == nil ⇒ 200 "ok"
//	/debug/pprof — the standard runtime profiles
//
// Decision records and the accuracy ledger have no route here: they are
// read over the Decisions and Accuracy RPCs, which every deployment
// serves. Liveness answers "is the process able to serve at all" (restart
// it if not); readiness answers "should traffic be routed here right now"
// — a daemon serving a degraded cluster view stays live but goes unready.
// A nil ready falls back to live, so single-probe callers keep the old
// one-check behaviour on both paths; live and tr may also be nil
// (always-healthy, no span/trace endpoints).
func DebugMux(reg *Registry, tr *Tracer, live, ready func() error) *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("/metrics", Handler(reg))
	if ready == nil {
		ready = live
	}
	mux.HandleFunc("/healthz", probeHandler(live))
	mux.HandleFunc("/readyz", probeHandler(ready))
	if tr != nil {
		mux.Handle("/debug/spans", SpanHandler(tr))
		mux.Handle("/debug/trace", TraceHandler(tr))
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

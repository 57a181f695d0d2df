// Observability for the mapping-evaluation core. Every metric here is a
// pre-resolved atomic from internal/obs. The per-move scorer series
// (Apply, Undo, rescored terms) are counted in the Scorer and added here
// by Scorer.Publish — on every full evaluation and when a search ends —
// so parallel SA restarts do not contend on a shared cache line per move.
package core

import (
	"time"

	"cbes/internal/obs"
)

var (
	// RPC-facing prediction path (Estimate, and Predict with its breakdown).
	metricPredicts = obs.Default().Counter(
		"cbes_core_predict_total", "Estimate and Predict evaluations (eq. 4).")
	metricPredictSeconds = obs.Default().Histogram(
		"cbes_core_predict_seconds", "Latency of Estimate and Predict evaluations.", nil)

	// Scorer kernel (full evaluation, then Apply/Undo — the scheduler hot loop).
	metricEnergyFull = obs.Default().Counter(
		"cbes_core_energy_evals_total", "Full Scorer evaluations (Energy, Estimate, Predict, PredictBrownout).")
	metricEnergyDelta = obs.Default().Counter(
		"cbes_core_delta_evals_total", "Incremental Scorer.Apply delta evaluations.")
	metricUndos = obs.Default().Counter(
		"cbes_core_undo_total", "Scorer.Undo reversions (rejected proposals).")
	metricDeltaTouched = obs.Default().Counter(
		"cbes_core_delta_terms_rescored_total", "Per-(segment,proc) terms rescored by Apply.")

	// Evaluator construction (index precomputation).
	metricEvaluators = obs.Default().Counter(
		"cbes_core_evaluators_built_total", "Evaluator fast-path indexes built.")

	// Degraded-mode prediction (fault handling).
	metricDegradedPredicts = obs.Default().Counter(
		"cbes_core_predict_degraded_total",
		"Predictions that fell back to profile-only values for stale nodes.")
	metricNodeDownErrors = obs.Default().Counter(
		"cbes_core_node_down_errors_total",
		"Evaluations rejected because the mapping placed a rank on a down node.")

	// Brownout fast path (overload handling).
	metricBrownoutPredicts = obs.Default().Counter(
		"cbes_core_predict_brownout_total",
		"Predictions served from the profile-only brownout fast path under load shedding.")
)

// observePredict records one Estimate or Predict evaluation begun at start.
func observePredict(start time.Time) {
	metricPredicts.Inc()
	metricPredictSeconds.Observe(time.Since(start).Seconds())
}

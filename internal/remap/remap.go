// Package remap implements the application-remapping capability the paper
// plans as future work (§2, §8): "if system conditions, with regard to a
// running application, change, there should be the capability of
// generating a new mapping for that application, that may yield an even
// shorter execution time for the remainder of the execution, taking into
// account the task remapping costs."
//
// Two pieces:
//
//   - Advisor: given how much of the application remains and the current
//     resource snapshot, compare "stay on the current mapping" against the
//     best alternative mapping plus the migration cost, and recommend.
//   - Executor: run an iterative application in checkpointed segments,
//     consulting the Advisor between segments and migrating when it pays.
package remap

import (
	"errors"
	"fmt"
	"math"

	"cbes/internal/accuracy"
	"cbes/internal/core"
	"cbes/internal/monitor"
	"cbes/internal/schedule"
)

// Advice is the outcome of a remapping evaluation.
type Advice struct {
	// Remap reports whether migrating is predicted to pay off.
	Remap bool
	// Current is the predicted remaining time on the current mapping.
	Current float64
	// Alternative is the predicted remaining time on the proposed mapping
	// (excluding migration cost).
	Alternative float64
	// Mapping is the proposed mapping (equal to the current one when
	// Remap is false).
	Mapping core.Mapping
	// Gain is Current − (Alternative + MigrationCost), seconds.
	Gain float64
}

// Advisor decides whether a running application should be remapped.
type Advisor struct {
	// Eval is the application's mapping evaluator.
	Eval *core.Evaluator
	// Pool is the node pool available for alternative mappings.
	Pool []int
	// MigrationCost is the fixed checkpoint+restart cost in seconds.
	MigrationCost float64
	// Effort is the SA search effort for the alternative (default 3000).
	Effort int
}

// hysteresisPct requires the gain to exceed this percentage of the
// remaining time before a move is recommended, so marginal differences
// do not cause migration churn.
const hysteresisPct = 2.0

// Evaluate compares staying on `current` against the best alternative for
// the remaining fraction of the application (0 < remaining <= 1) under the
// conditions of snap.
//
// If the current mapping straddles a node the snapshot reports down, the
// application cannot make progress where it is: Evaluate switches to
// evacuation mode — "stay" costs +Inf, hysteresis is waived, and any
// feasible alternative (the scheduler filters down nodes from the pool) is
// recommended. Only an infeasible pool (schedule.ErrInfeasible) surfaces
// as an error then.
func (a *Advisor) Evaluate(current core.Mapping, remaining float64, snap *monitor.Snapshot, seed int64) (*Advice, error) {
	if remaining <= 0 || remaining > 1 {
		return nil, fmt.Errorf("remap: remaining fraction %v out of (0,1]", remaining)
	}
	cur := math.Inf(1)
	evacuate := false
	curEst, err := a.Eval.Estimate(current, snap)
	switch {
	case err == nil:
		cur = curEst.Seconds * remaining
	case errors.Is(err, core.ErrNodeDown):
		evacuate = true
	default:
		return nil, err
	}

	dec, err := schedule.SimulatedAnnealing(&schedule.Request{
		Eval:   a.Eval,
		Snap:   snap,
		Pool:   a.Pool,
		Seed:   seed,
		Effort: a.Effort,
	})
	if err != nil {
		return nil, err
	}
	alt := dec.Predicted * remaining

	advice := &Advice{Current: cur, Alternative: alt, Mapping: current.Clone()}
	gain := cur - (alt + a.MigrationCost)
	switch {
	case evacuate:
		advice.Remap = true
		advice.Mapping = dec.Mapping
		advice.Gain = gain // +Inf: migrating off a dead node always pays
	case gain > 0 && gain > cur*hysteresisPct/100 && !dec.Mapping.Equal(current):
		advice.Remap = true
		advice.Mapping = dec.Mapping
		advice.Gain = gain
	}
	return advice, nil
}

// SegmentRunner abstracts an application that can execute a slice of its
// iterations on a mapping and report the simulated seconds it took — the
// "core segment repeated any number of times" structure the paper's §6
// discussion leans on.
type SegmentRunner interface {
	// RunSegment executes iterations [from, to) on the mapping and returns
	// elapsed simulated seconds.
	RunSegment(mapping core.Mapping, from, to int) float64
	// Iterations reports the total iteration count.
	Iterations() int
}

// ExecutionLog records what the executor did.
type ExecutionLog struct {
	Segments   []SegmentRecord
	Remaps     int
	TotalTime  float64 // simulated seconds, including migration costs
	FinalMap   core.Mapping
	InitialMap core.Mapping
}

// SegmentRecord is one executed segment.
type SegmentRecord struct {
	From, To int
	Mapping  core.Mapping
	Seconds  float64
	Remapped bool // a migration preceded this segment
}

// Execute runs the application in `checkpoints` equal segments, consulting
// the advisor before each subsequent segment with the snapshot supplied by
// snapFn (typically SystemMonitor.Snapshot).
func Execute(app SegmentRunner, initial core.Mapping, adv *Advisor, checkpoints int, snapFn func() *monitor.Snapshot, seed int64) (*ExecutionLog, error) {
	if checkpoints < 1 {
		checkpoints = 1
	}
	total := app.Iterations()
	logRec := &ExecutionLog{InitialMap: initial.Clone()}
	mapping := initial.Clone()
	for s := 0; s < checkpoints; s++ {
		from := total * s / checkpoints
		to := total * (s + 1) / checkpoints
		if from >= to {
			continue
		}
		remapped := false
		segPredicted := 0.0
		var segSnap *monitor.Snapshot
		if s > 0 {
			remaining := float64(total-from) / float64(total)
			segSnap = snapFn()
			advice, err := adv.Evaluate(mapping, remaining, segSnap, seed+int64(s))
			if err != nil {
				return nil, err
			}
			if advice.Remap {
				mapping = advice.Mapping
				logRec.Remaps++
				logRec.TotalTime += adv.MigrationCost
				remapped = true
			}
			// The advisor predicted the whole remaining run; this segment is
			// (to-from) of the (total-from) iterations left.
			chosen := advice.Current
			if remapped {
				chosen = advice.Alternative
			}
			segPredicted = chosen * float64(to-from) / float64(total-from)
		}
		secs := app.RunSegment(mapping, from, to)
		logRec.TotalTime += secs
		// Close the loop on the advisor's per-segment estimate so remapping
		// decisions show up in the accuracy ledger.
		if segPredicted > 0 && !math.IsInf(segPredicted, 1) {
			accuracy.Default().ReportPair(accuracy.Prediction{
				App:       adv.Eval.Prof.App,
				Scheduler: "remap",
				AgeBucket: accuracy.AgeBucket(segSnap.MaxAge(mapping)),
				Epoch:     segSnap.Epoch,
				Predicted: segPredicted,
			}, secs)
		}
		logRec.Segments = append(logRec.Segments, SegmentRecord{
			From: from, To: to, Mapping: mapping.Clone(), Seconds: secs, Remapped: remapped,
		})
	}
	logRec.FinalMap = mapping
	return logRec, nil
}

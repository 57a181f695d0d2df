// Package batch is a workload-manager harness over the CBES service: a
// stream of parallel jobs arrives at a shared cluster and a placement
// policy assigns each job's ranks to free nodes. It reproduces the paper's
// introductory positioning — parallel runtime systems "select nodes
// round-robin from the same node list they use for system booting,
// regardless of resource availability", workload managers maximize
// throughput rather than application performance, while CBES schedules
// each application for its own maximum benefit.
//
// Jobs space-share the cluster (a node runs at most one job at a time, the
// usual batch-queue discipline); queued jobs start FIFO as nodes free up.
// Everything runs on the live simulated cluster, so placements contend for
// links and background load realistically.
package batch

import (
	"fmt"
	"sort"

	"cbes"
	"cbes/internal/accuracy"
	"cbes/internal/core"
	"cbes/internal/des"
	"cbes/internal/schedule"
	"cbes/internal/workloads"
)

// Job is one submission.
type Job struct {
	// ID is assigned by the runner in submission order.
	ID int
	// Prog must be profiled in the System before Run (policy "cbes").
	Prog workloads.Program
	// Submit is the arrival time.
	Submit des.Time
}

// JobResult records one job's life cycle.
type JobResult struct {
	ID      int
	Name    string
	Submit  des.Time
	Start   des.Time
	End     des.Time
	Mapping core.Mapping
	// Predicted is the CBES estimate for the placed mapping at start time
	// (0 when no prediction was possible); PredictionID keys the pair in
	// the accuracy ledger, where the measured runtime is joined back on
	// completion. Every policy is audited, including the prediction-blind
	// ones — that contrast is the point.
	Predicted    float64
	PredictionID string
}

// Wait is the queueing delay before the job started.
func (r JobResult) Wait() des.Time { return r.Start - r.Submit }

// Turnaround is submission-to-completion.
func (r JobResult) Turnaround() des.Time { return r.End - r.Submit }

// Policy selects nodes for a job from the currently free set.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Place returns a mapping using only nodes from free (each at most
	// once). It must return an error if it cannot place the job.
	Place(sys *cbes.System, job *Job, free []int, seed int64) (core.Mapping, error)
}

// RoundRobin is the naive PVM/MPI-style placement: the first free nodes in
// boot-list (ID) order, regardless of architecture or topology.
type RoundRobin struct{}

// Name identifies the policy.
func (RoundRobin) Name() string { return "round-robin" }

// Place takes the lowest-ID free nodes.
func (RoundRobin) Place(_ *cbes.System, job *Job, free []int, _ int64) (core.Mapping, error) {
	if len(free) < job.Prog.Ranks {
		return nil, fmt.Errorf("batch: %d free nodes < %d ranks", len(free), job.Prog.Ranks)
	}
	sorted := append([]int(nil), free...)
	sort.Ints(sorted)
	return core.Mapping(sorted[:job.Prog.Ranks]), nil
}

// FastestNodes picks the computationally fastest free nodes (a
// throughput-style heuristic: speed-aware but communication-blind, like
// NCS).
type FastestNodes struct{}

// Name identifies the policy.
func (FastestNodes) Name() string { return "fastest-nodes" }

// Place sorts free nodes by descending speed (ID as tie-break).
func (FastestNodes) Place(sys *cbes.System, job *Job, free []int, _ int64) (core.Mapping, error) {
	if len(free) < job.Prog.Ranks {
		return nil, fmt.Errorf("batch: %d free nodes < %d ranks", len(free), job.Prog.Ranks)
	}
	sorted := append([]int(nil), free...)
	sort.Slice(sorted, func(i, j int) bool {
		si, sj := sys.Topo.Node(sorted[i]).Speed, sys.Topo.Node(sorted[j]).Speed
		if si != sj {
			return si > sj
		}
		return sorted[i] < sorted[j]
	})
	return core.Mapping(sorted[:job.Prog.Ranks]), nil
}

// CBESPolicy runs the CS scheduler over the free pool under current
// monitored conditions.
type CBESPolicy struct{}

const (
	// cbesEffort is the SA evaluation budget of one placement.
	cbesEffort = 8000
	// cbesRestarts spreads the budget over independent anneals: placement
	// decisions are rare and worth the robustness against basin capture.
	cbesRestarts = 8
)

// Name identifies the policy.
func (CBESPolicy) Name() string { return "cbes-cs" }

// Place schedules with simulated annealing on the free pool.
func (CBESPolicy) Place(sys *cbes.System, job *Job, free []int, seed int64) (core.Mapping, error) {
	if len(free) < job.Prog.Ranks {
		return nil, fmt.Errorf("batch: %d free nodes < %d ranks", len(free), job.Prog.Ranks)
	}
	eval, err := sys.Evaluator(job.Prog.Name)
	if err != nil {
		return nil, err
	}
	dec, err := schedule.SimulatedAnnealing(&schedule.Request{
		Eval:     eval,
		Snap:     sys.Snapshot(),
		Pool:     free,
		Seed:     seed,
		Effort:   cbesEffort,
		Restarts: cbesRestarts,
	})
	if err != nil {
		return nil, err
	}
	return dec.Mapping, nil
}

// Report summarises a completed batch run.
type Report struct {
	Policy string
	Jobs   []JobResult
	// Makespan is first-submit to last-completion.
	Makespan des.Time
	// MeanTurnaround and MeanWait are averages over jobs.
	MeanTurnaround des.Time
	MeanWait       des.Time
}

// Run submits the jobs to the system under the policy and drives the
// simulation until every job completes. Jobs must fit the cluster
// (Ranks <= nodes). The System must already be calibrated with every
// program profiled.
func Run(sys *cbes.System, policy Policy, jobs []Job, seed int64) (*Report, error) {
	n := sys.Topo.NumNodes()
	if len(jobs) == 0 {
		return nil, fmt.Errorf("batch: no jobs")
	}
	for i := range jobs {
		if jobs[i].Prog.Ranks > n {
			return nil, fmt.Errorf("batch: job %q needs %d ranks, cluster has %d nodes",
				jobs[i].Prog.Name, jobs[i].Prog.Ranks, n)
		}
	}
	busy := make([]bool, n)
	var queue []*Job
	results := make([]JobResult, len(jobs))
	remaining := len(jobs)

	freeNodes := func() []int {
		var free []int
		for i := 0; i < n; i++ {
			if !busy[i] {
				free = append(free, i)
			}
		}
		return free
	}

	var placeErr error
	// tryStart launches every queued job that fits, FIFO. Called from
	// engine context.
	var tryStart func()
	tryStart = func() {
		for len(queue) > 0 && placeErr == nil {
			job := queue[0]
			free := freeNodes()
			if len(free) < job.Prog.Ranks {
				return // head-of-line blocking, standard FIFO
			}
			mapping, err := policy.Place(sys, job, free, seed+int64(job.ID))
			if err != nil {
				placeErr = err
				return
			}
			queue = queue[1:]
			for _, node := range mapping {
				if busy[node] {
					placeErr = fmt.Errorf("batch: policy %s reused busy node %d", policy.Name(), node)
					return
				}
				busy[node] = true
			}
			results[job.ID].Start = sys.Eng.Now()
			results[job.ID].Mapping = mapping.Clone()
			// Close the predicted-vs-actual loop: register the estimate for
			// the placed mapping now, join the measured runtime on
			// completion. Estimate and Snapshot are engine-context-safe here
			// (Place may already call Snapshot on this path).
			if eval, err := sys.Evaluator(job.Prog.Name); err == nil {
				snap := sys.Snapshot()
				if est, err := eval.Estimate(mapping, snap); err == nil && est.Seconds > 0 {
					results[job.ID].Predicted = est.Seconds
					results[job.ID].PredictionID = accuracy.Default().Begin(accuracy.Prediction{
						App:       job.Prog.Name,
						Scheduler: "batch/" + policy.Name(),
						Degraded:  est.Degraded,
						AgeBucket: accuracy.AgeBucket(snap.MaxAge(mapping)),
						Epoch:     snap.Epoch,
						Predicted: est.Seconds,
					})
				}
			}
			w := sys.Launch(job.Prog, mapping)
			sys.Eng.Spawn(fmt.Sprintf("reaper-%d", job.ID), func(p *des.Proc) {
				w.WaitIn(p)
				results[job.ID].End = sys.Eng.Now()
				if id := results[job.ID].PredictionID; id != "" {
					ran := (results[job.ID].End - results[job.ID].Start).Seconds()
					accuracy.Default().Report(id, ran) //nolint:errcheck // eviction under load is fine
				}
				for _, node := range results[job.ID].Mapping {
					busy[node] = false
				}
				remaining--
				tryStart()
			})
		}
	}

	for i := range jobs {
		jobs[i].ID = i
		j := &jobs[i]
		results[i] = JobResult{ID: i, Name: j.Prog.Name, Submit: j.Submit}
		sys.Eng.ScheduleAt(j.Submit, func() {
			queue = append(queue, j)
			tryStart()
		})
	}

	for remaining > 0 && placeErr == nil {
		if !sys.Eng.Step(des.MaxTime) {
			return nil, fmt.Errorf("batch: deadlock with %d jobs unfinished", remaining)
		}
	}
	if placeErr != nil {
		return nil, placeErr
	}

	rep := &Report{Policy: policy.Name(), Jobs: results}
	var first, last des.Time = des.MaxTime, 0
	var sumT, sumW des.Time
	for _, r := range results {
		if r.Submit < first {
			first = r.Submit
		}
		if r.End > last {
			last = r.End
		}
		sumT += r.Turnaround()
		sumW += r.Wait()
	}
	rep.Makespan = last - first
	rep.MeanTurnaround = sumT / des.Time(len(results))
	rep.MeanWait = sumW / des.Time(len(results))
	return rep, nil
}

// Render formats the report.
func (r *Report) Render() string {
	out := fmt.Sprintf("policy %-14s makespan %9s  mean turnaround %9s  mean wait %9s\n",
		r.Policy, r.Makespan, r.MeanTurnaround, r.MeanWait)
	return out
}

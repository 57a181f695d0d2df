// Package monitor implements the CBES system-monitoring infrastructure:
// per-node CPU-availability and NIC-utilization sensors feeding
// forecasters, and on-demand cluster snapshots for the mapping-evaluation
// core.
//
// The SystemMonitor forecasts like the paper's Orange Grove prototype,
// which "considers the latest measured load values as valid for the next
// time period" (LastValue). The Centurion prototype's modified NWS is
// approximated by Adaptive, which tracks several simple predictors and
// reports the one with the lowest running error — the essential NWS
// mechanism; the forecaster ablation compares the two.
package monitor

import (
	"fmt"
	"math"
	"sort"
)

// Forecaster predicts the next value of a univariate series.
type Forecaster interface {
	// Update feeds one measurement.
	Update(v float64)
	// Forecast predicts the next measurement. Before any update it returns
	// the forecaster's prior (1.0 — an idle resource).
	Forecast() float64
	// Name identifies the forecaster for diagnostics.
	Name() string
}

// LastValue forecasts the most recent measurement (Orange Grove prototype).
type LastValue struct {
	v   float64
	has bool
}

// NewLastValue returns a last-value forecaster.
func NewLastValue() *LastValue { return &LastValue{} }

// Update records the measurement.
func (l *LastValue) Update(v float64) { l.v, l.has = v, true }

// Forecast returns the last measurement.
func (l *LastValue) Forecast() float64 {
	if !l.has {
		return 1.0
	}
	return l.v
}

// Name identifies the forecaster.
func (l *LastValue) Name() string { return "last" }

// SlidingMean forecasts the mean of the last W measurements.
type SlidingMean struct {
	win  []float64
	next int
	n    int
	sum  float64
}

// NewSlidingMean returns a sliding-mean forecaster over a window of w.
func NewSlidingMean(w int) *SlidingMean {
	if w <= 0 {
		panic("monitor: window must be positive")
	}
	return &SlidingMean{win: make([]float64, w)}
}

// Update records the measurement.
func (s *SlidingMean) Update(v float64) {
	if s.n == len(s.win) {
		s.sum -= s.win[s.next]
	} else {
		s.n++
	}
	s.win[s.next] = v
	s.sum += v
	s.next = (s.next + 1) % len(s.win)
}

// Forecast returns the window mean.
func (s *SlidingMean) Forecast() float64 {
	if s.n == 0 {
		return 1.0
	}
	return s.sum / float64(s.n)
}

// Name identifies the forecaster.
func (s *SlidingMean) Name() string { return fmt.Sprintf("mean%d", len(s.win)) }

// SlidingMedian forecasts the median of the last W measurements — NWS's
// robust predictor for spiky series.
type SlidingMedian struct {
	win  []float64
	next int
	n    int
}

// NewSlidingMedian returns a sliding-median forecaster over a window of w.
func NewSlidingMedian(w int) *SlidingMedian {
	if w <= 0 {
		panic("monitor: window must be positive")
	}
	return &SlidingMedian{win: make([]float64, w)}
}

// Update records the measurement.
func (s *SlidingMedian) Update(v float64) {
	s.win[s.next] = v
	s.next = (s.next + 1) % len(s.win)
	if s.n < len(s.win) {
		s.n++
	}
}

// Forecast returns the window median.
func (s *SlidingMedian) Forecast() float64 {
	if s.n == 0 {
		return 1.0
	}
	tmp := append([]float64(nil), s.win[:s.n]...)
	sort.Float64s(tmp)
	m := s.n / 2
	if s.n%2 == 1 {
		return tmp[m]
	}
	return (tmp[m-1] + tmp[m]) / 2
}

// Name identifies the forecaster.
func (s *SlidingMedian) Name() string { return fmt.Sprintf("median%d", len(s.win)) }

// EWMA forecasts with exponential smoothing.
type EWMA struct {
	alpha float64
	v     float64
	has   bool
}

// NewEWMA returns an exponentially-weighted forecaster with smoothing
// factor alpha in (0, 1].
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic("monitor: alpha out of (0,1]")
	}
	return &EWMA{alpha: alpha}
}

// Update records the measurement.
func (e *EWMA) Update(v float64) {
	if !e.has {
		e.v, e.has = v, true
		return
	}
	e.v = e.alpha*v + (1-e.alpha)*e.v
}

// Forecast returns the smoothed value.
func (e *EWMA) Forecast() float64 {
	if !e.has {
		return 1.0
	}
	return e.v
}

// Name identifies the forecaster.
func (e *EWMA) Name() string { return fmt.Sprintf("ewma%.2f", e.alpha) }

// Adaptive runs a family of candidate forecasters and reports the forecast
// of whichever has accumulated the lowest mean squared one-step error so
// far — the core idea of the Network Weather Service.
type Adaptive struct {
	cands []Forecaster
	sqErr []float64
	n     int
}

// NewAdaptive builds an adaptive forecaster over the given candidates; with
// no arguments it uses the NWS-like default family.
func NewAdaptive(cands ...Forecaster) *Adaptive {
	if len(cands) == 0 {
		cands = []Forecaster{
			NewLastValue(),
			NewSlidingMean(5),
			NewSlidingMean(20),
			NewSlidingMedian(5),
			NewSlidingMedian(20),
			NewEWMA(0.25),
			NewEWMA(0.5),
		}
	}
	return &Adaptive{cands: cands, sqErr: make([]float64, len(cands))}
}

// Update scores every candidate against the arriving measurement, then
// feeds it to all of them.
func (a *Adaptive) Update(v float64) {
	for i, c := range a.cands {
		d := c.Forecast() - v
		a.sqErr[i] += d * d
	}
	for _, c := range a.cands {
		c.Update(v)
	}
	a.n++
}

// Forecast returns the current best candidate's forecast.
func (a *Adaptive) Forecast() float64 { return a.cands[a.best()].Forecast() }

// Name reports which candidate is currently winning.
func (a *Adaptive) Name() string { return "adaptive(" + a.cands[a.best()].Name() + ")" }

func (a *Adaptive) best() int {
	bi, be := 0, math.Inf(1)
	for i, e := range a.sqErr {
		if e < be {
			bi, be = i, e
		}
	}
	return bi
}

package core

import (
	"sort"
	"sync"
	"time"
)

// This file is the adaptive-deadline half of the tail-latency armor: an
// online per-extractor latency estimator over observed step runtimes.
// The pump feeds it every fresh (non-cached) step completion and asks it
// for a per-task hedge deadline at submit time. It is deliberately
// journal-agnostic — estimates are a performance hint, not state, so
// they rebuild from live traffic after a restart and never appear in the
// recovery path.

// estimatorWindow is how many recent samples each extractor retains; a
// ring this size tracks drift (an extractor slowing down under load)
// while keeping the quantile recompute trivially cheap.
const estimatorWindow = 256

// estimatorRecomputeEvery batches quantile recomputation: the cached
// quantile serves reads until this many new samples arrive, so the
// per-completion Observe cost is one ring write, not a sort.
const estimatorRecomputeEvery = 16

// HedgePolicy configures hedged speculative execution.
type HedgePolicy struct {
	// Enabled turns hedging on. Off (the default), shards report no
	// accepted tasks, so no deadline is armed and no duplicate dispatched.
	Enabled bool
	// Quantile is the per-extractor latency quantile a task must exceed
	// before a duplicate is dispatched (default 0.95).
	Quantile float64
	// Multiplier scales the quantile estimate into the hedge deadline
	// (default 3): deadline = quantile × multiplier × steps-in-task.
	Multiplier float64
	// MinSamples is how many runtime observations an extractor needs
	// before its estimate is trusted; colder extractors fall back to the
	// fabric's heartbeat timeout (default 20).
	MinSamples int
	// MinDelay floors the computed deadline so estimate jitter on very
	// fast extractors cannot hedge everything (default 5ms).
	MinDelay time.Duration
}

// withDefaults fills zero fields.
func (h HedgePolicy) withDefaults() HedgePolicy {
	if h.Quantile <= 0 || h.Quantile >= 1 {
		h.Quantile = 0.95
	}
	if h.Multiplier <= 0 {
		h.Multiplier = 3
	}
	if h.MinSamples <= 0 {
		h.MinSamples = 20
	}
	if h.MinDelay <= 0 {
		h.MinDelay = 5 * time.Millisecond
	}
	return h
}

// extEstimate is one extractor's sample ring and cached quantile.
type extEstimate struct {
	samples [estimatorWindow]time.Duration
	next    int
	count   int
	fresh   int // samples since the cached quantile was computed
	cached  time.Duration
}

// latencyEstimator holds per-extractor runtime estimates. Safe for
// concurrent use (concurrent jobs share the service's estimator); a nil
// *latencyEstimator always falls back.
type latencyEstimator struct {
	pol HedgePolicy

	mu    sync.Mutex
	byExt map[string]*extEstimate
}

func newLatencyEstimator(pol HedgePolicy) *latencyEstimator {
	return &latencyEstimator{pol: pol, byExt: make(map[string]*extEstimate)}
}

// Observe records one fresh step runtime for the extractor.
func (e *latencyEstimator) Observe(extractor string, d time.Duration) {
	if e == nil || d < 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	est, ok := e.byExt[extractor]
	if !ok {
		est = &extEstimate{}
		e.byExt[extractor] = est
	}
	est.samples[est.next] = d
	est.next = (est.next + 1) % estimatorWindow
	if est.count < estimatorWindow {
		est.count++
	}
	est.fresh++
	if est.fresh >= estimatorRecomputeEvery || est.cached == 0 {
		est.cached = est.quantileLocked(e.pol.Quantile)
		est.fresh = 0
	}
}

// quantileLocked computes the q-quantile over the retained samples.
func (est *extEstimate) quantileLocked(q float64) time.Duration {
	if est.count == 0 {
		return 0
	}
	tmp := make([]time.Duration, est.count)
	copy(tmp, est.samples[:est.count])
	sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
	idx := int(q * float64(est.count-1))
	return tmp[idx]
}

// Deadline returns the hedge deadline for one step of the extractor:
// quantile × multiplier, floored at MinDelay and capped at fallback (the
// fabric's heartbeat timeout — the adaptive deadline tightens the fixed
// timeout, never loosens it). Cold extractors — fewer than MinSamples
// observations, or none at all — return fallback unchanged, so a
// deadline is never zero while the estimator warms up.
func (e *latencyEstimator) Deadline(extractor string, fallback time.Duration) time.Duration {
	if e == nil {
		return fallback
	}
	e.mu.Lock()
	est, ok := e.byExt[extractor]
	var q time.Duration
	if ok && est.count >= e.pol.MinSamples {
		q = est.cached
	}
	e.mu.Unlock()
	if q <= 0 {
		return fallback
	}
	d := time.Duration(float64(q) * e.pol.Multiplier)
	if d < e.pol.MinDelay {
		d = e.pol.MinDelay
	}
	if fallback > 0 && d > fallback {
		d = fallback
	}
	return d
}

// Samples reports how many observations the extractor has accumulated.
func (e *latencyEstimator) Samples(extractor string) int {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if est, ok := e.byExt[extractor]; ok {
		return est.count
	}
	return 0
}

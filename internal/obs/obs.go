package obs

import "xtract/internal/clock"

// Observer bundles the two halves of the observability layer — the
// metric registry and the per-job event ring — so components can be
// handed a single optional dependency. A nil *Observer disables both
// halves at near-zero cost.
type Observer struct {
	// Metrics is the labeled metric registry served on GET /metrics.
	Metrics *Registry
	// trace holds the per-job events served on
	// GET /api/v1/jobs/{id}/events (Event, Warn, Events).
	trace ring
}

// New returns an Observer with a fresh registry and an event ring
// stamping events from clk.
func New(clk clock.Clock) *Observer {
	return &Observer{
		Metrics: NewRegistry(),
		trace:   ring{clk: clk, jobs: make(map[string]*jobTrace)},
	}
}

// Reg returns the metric registry, or nil for a nil/metrics-less
// observer. All Registry constructors accept a nil receiver, so callers
// chain unconditionally: o.Reg().Counter(...).
func (o *Observer) Reg() *Registry {
	if o == nil {
		return nil
	}
	return o.Metrics
}

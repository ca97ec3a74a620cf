package core

import (
	"testing"

	"xtract/internal/tenant"
)

// TestTaskIntakeStaysInItsBudget holds the dispatcher's side of one task
// — intake of each of its steps into the extractor's bucket, and
// makeTask turning the full bucket into a task and its pending FaaS
// request — to the task's own records: the task, its refs, its step
// payloads and the payload that carries them. A step costs nothing of
// its own, because the bucket keeps its array from one task to the next.
// The funcX batch is never submitted here: the fabric's side is faas's
// TestTaskRoundTripStaysInItsBudget.
func TestTaskIntakeStaysInItsBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const budget = 4
	for _, steps := range []int{1, 8} {
		m := newMachine(t, func(cfg *Config) { cfg.XtractBatchSize, cfg.FuncXBatchSize = steps, 1<<20 })
		st := m.family("fam", steps)
		site, _ := m.svc.Site("x")
		d := newDispatcher(m.svc, m.p.JobID, tenant.Default, site, &m.p.events)
		items := make([]dispatchItem, steps)
		for i := range items {
			items[i] = dispatchItem{extractor: "keyword", readyAt: m.clk.Now(), ref: stepRef{st, i}, sp: st.payload(i)}
		}
		allocs := testing.AllocsPerRun(20, func() {
			for _, it := range items {
				d.intake(it)
			}
			if len(d.pending) != 1 {
				t.Fatalf("%d tasks pending after %d steps, want 1", len(d.pending), steps)
			}
			clear(d.reqs)
			clear(d.pending)
			d.reqs, d.pending = d.reqs[:0], d.pending[:0] // as submit leaves them
		})
		t.Logf("%.0f allocations to take in a %d-step task", allocs, steps)
		if allocs > budget {
			t.Errorf("taking in a %d-step task allocated %.0f times, budget %d", steps, allocs, budget)
		}
	}
}

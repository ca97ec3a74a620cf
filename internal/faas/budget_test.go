package faas

import (
	"context"
	"testing"
)

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// TestTaskRoundTripStaysInItsBudget holds one task's trip through the
// fabric — SubmitBatch, the handler on an endpoint worker, Notify, Drain
// and Forget — to a fixed number of allocations. The payload and the
// result are one pointer the fabric carries as given, so the count does
// not depend on what the task carries.
func TestTaskRoundTripStaysInItsBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const budget = 11
	svc, ep, cancel := newLiveService(t, 1)
	defer cancel()
	fid, err := svc.Register("value", func(_ context.Context, p any) (any, error) { return p, nil }, "")
	if err != nil {
		t.Fatal(err)
	}
	payload := &struct{ steps [8]string }{}
	reqs := []TaskRequest{{FunctionID: fid, EndpointID: ep.ID, Payload: payload}}
	sink := NewCompletionSink()
	var last TaskInfo
	allocs := testing.AllocsPerRun(200, func() {
		ids, err := svc.SubmitBatch(reqs)
		if err != nil {
			t.Fatal(err)
		}
		svc.Notify(ids, sink)
		for n := 0; n < len(ids); {
			<-sink.Ready()
			for _, info := range sink.Drain() {
				last = info
				n++
			}
		}
		svc.Forget(ids[0])
	})
	if last.Status != TaskSuccess || last.Result != any(payload) {
		t.Fatalf("last task ended %+v, want its payload back", last)
	}
	t.Logf("%.0f allocations for one task's round trip", allocs)
	if allocs > budget {
		t.Fatalf("one task's round trip allocated %.0f times, budget %d", allocs, budget)
	}
}

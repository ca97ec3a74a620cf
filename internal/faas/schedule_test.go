package faas

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"xtract/internal/clock"
)

// benchCosts are the control-plane costs bench/workloads.go gives
// stage-remote.
var benchCosts = Costs{
	AuthPerRequest:  500 * time.Microsecond,
	SubmitPerBatch:  time.Millisecond,
	SubmitPerTask:   20 * time.Microsecond,
	DispatchPerTask: 50 * time.Microsecond,
	ResultPerTask:   20 * time.Microsecond,
}

// batchRig is a service on a fake clock whose endpoints are registered
// but never started: a delivered task stays on its endpoint's queue, and
// the submitting goroutine's sleeps are the clock's only timers.
type batchRig struct {
	clk   *clock.Fake
	start time.Time
	costs Costs
	svc   *Service
	eps   []*Endpoint
	fid   string
}

func newBatchRig(t *testing.T, costs Costs, endpoints int) *batchRig {
	t.Helper()
	start := time.Unix(1_700_000_000, 0)
	clk := clock.NewFake(start)
	r := &batchRig{clk: clk, start: start, costs: costs, svc: NewService(clk, costs)}
	for i := 0; i < endpoints; i++ {
		ep := NewEndpoint(fmt.Sprintf("ep%d", i), 1, clk)
		r.svc.RegisterEndpoint(ep)
		r.eps = append(r.eps, ep)
	}
	fid, err := r.svc.RegisterFunction("echo", echoHandler, "")
	if err != nil {
		t.Fatal(err)
	}
	r.fid = fid
	return r
}

// submit starts a batch whose task i goes to endpoint route[i]; the
// channel receives the clock reading at which SubmitBatch returned.
func (r *batchRig) submit(t *testing.T, route []int) <-chan time.Time {
	reqs := make([]TaskRequest, len(route))
	for i, ep := range route {
		reqs[i] = TaskRequest{FunctionID: r.fid, EndpointID: r.eps[ep].ID}
	}
	returned := make(chan time.Time, 1)
	go func() {
		if _, err := r.svc.SubmitBatch(reqs); err != nil {
			t.Error(err)
		}
		returned <- r.clk.Now()
	}()
	return returned
}

// due is the model: when task i of a k-task batch reaches its endpoint.
func (r *batchRig) due(i, k int) time.Time {
	c := r.costs
	return r.start.Add(c.AuthPerRequest + c.SubmitPerBatch +
		time.Duration(k)*c.SubmitPerTask + time.Duration(i+1)*c.DispatchPerTask)
}

// delivered reports how many tasks sit on each endpoint's queue.
func (r *batchRig) delivered() []int {
	out := make([]int, len(r.eps))
	for i, ep := range r.eps {
		out[i] = ep.QueueDepth()
	}
	return out
}

// parked waits until the submitter sleeps on its next due time.
func (r *batchRig) parked(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for r.clk.PendingTimers() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("the submitter never parked on its schedule")
		}
		runtime.Gosched()
	}
}

// walk steps the clock through a batch's schedule. Before each task's due
// time, and a nanosecond before it, exactly the tasks ahead of it in
// request order are on their endpoints' queues; it returns when the call
// did.
func (r *batchRig) walk(t *testing.T, route []int) time.Time {
	t.Helper()
	returned := r.submit(t, route)
	want := make([]int, len(r.eps))
	for i := range route {
		r.parked(t)
		due := r.due(i, len(route))
		r.clk.Set(due.Add(-time.Nanosecond))
		if got := r.delivered(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("1ns before task %d is due: delivered %v, want %v", i, got, want)
		}
		r.clk.Set(due)
		want[route[i]]++
	}
	var at time.Time
	select {
	case at = <-returned:
	case <-time.After(10 * time.Second):
		t.Fatalf("SubmitBatch did not return at +%v, when its last task was due", r.clk.Since(r.start))
	}
	if got := r.delivered(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after the batch: delivered %v, want %v", got, want)
	}
	return at
}

// TestBatchDeliversOnItsSchedule: on a fake clock, task i of a k-task
// batch reaches its endpoint exactly at start + auth + batch +
// k·SubmitPerTask + (i+1)·DispatchPerTask and not a nanosecond earlier,
// and SubmitBatch returns exactly when the last task is delivered.
func TestBatchDeliversOnItsSchedule(t *testing.T) {
	for _, k := range []int{1, 16, 1000} {
		r := newBatchRig(t, benchCosts, 1)
		at := r.walk(t, make([]int, k))
		if want := r.due(k-1, k); !at.Equal(want) {
			t.Fatalf("%d tasks: SubmitBatch returned at +%v, the model says +%v",
				k, at.Sub(r.start), want.Sub(r.start))
		}
	}
}

// TestBatchDeliversInRequestOrder: a batch spanning two endpoints
// delivers its tasks in request order, task i at start + batch +
// (i+1)·DispatchPerTask, the same on every run.
func TestBatchDeliversInRequestOrder(t *testing.T) {
	route := []int{0, 0, 1, 0, 1, 1, 1, 0, 1, 0, 0, 1}
	costs := Costs{SubmitPerBatch: time.Millisecond, DispatchPerTask: 50 * time.Microsecond}
	for run := 0; run < 20; run++ {
		r := newBatchRig(t, costs, 2)
		if at, want := r.walk(t, route), r.due(len(route)-1, len(route)); !at.Equal(want) {
			t.Fatalf("run %d: SubmitBatch returned at +%v, want +%v", run, at.Sub(r.start), want.Sub(r.start))
		}
	}
}

// TestBatchCostsWhatTheModelSays is the real-clock guard: a 16-task batch
// at stage-remote's costs is modelled at 2.62 ms. No attempt may return
// earlier; the best of five must return within 3 ms of the model. A sleep
// per task cost a timer tick each (about 19 ms on a host whose timers
// tick at 1 ms).
func TestBatchCostsWhatTheModelSays(t *testing.T) {
	if testing.Short() {
		t.Skip("real-clock timing")
	}
	clk := clock.NewReal()
	svc := NewService(clk, benchCosts)
	svc.RegisterEndpoint(NewEndpoint("ep", 1, clk))
	fid, err := svc.RegisterFunction("echo", echoHandler, "")
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]TaskRequest, 16)
	for i := range reqs {
		reqs[i] = TaskRequest{FunctionID: fid, EndpointID: "ep"}
	}
	c := benchCosts
	model := c.AuthPerRequest + c.SubmitPerBatch + 16*(c.SubmitPerTask+c.DispatchPerTask)
	best := time.Duration(1 << 62)
	for try := 0; try < 5; try++ {
		start := time.Now()
		if _, err := svc.SubmitBatch(reqs); err != nil {
			t.Fatal(err)
		}
		took := time.Since(start)
		if took < model {
			t.Fatalf("a 16-task batch returned after %v, before its modelled %v", took, model)
		}
		best = min(best, took)
	}
	if best > model+3*time.Millisecond {
		t.Fatalf("a 16-task batch took %v at best; the model says %v", best, model)
	}
}

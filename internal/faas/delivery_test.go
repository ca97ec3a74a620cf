package faas

import (
	"context"
	"errors"
	"testing"
	"time"

	"xtract/internal/clock"
)

// TestEveryTerminalTransitionNotifiesOnce pins what lets a dispatcher rely
// on notifications alone, with no polling sweep behind them: whichever
// way a task turns terminal, a sink subscribed before the transition and
// a sink subscribed after it each receive the final TaskInfo exactly
// once. (Every transition publishes under the task's own mutex, and
// Notify reads the status under that mutex, so a subscription is either
// in the list the transition publishes to or sees the terminal status
// itself.)
func TestEveryTerminalTransitionNotifiesOnce(t *testing.T) {
	release := make(chan struct{})
	parked := func(ctx context.Context, _ any) (any, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	}
	defer close(release)

	cases := []struct {
		name    string
		handler Handler
		// end drives the submitted task to its terminal state; nil means
		// the handler's own return does.
		end    func(t *testing.T, svc *Service, ep *Endpoint, clk *clock.Fake, id string)
		unlive bool // the endpoint is never started (and the clock is fake)
		want   TaskStatus
	}{
		{name: "success", handler: echoHandler, want: TaskSuccess},
		{name: "handler error", want: TaskFailed,
			handler: func(context.Context, any) (any, error) { return nil, errors.New("boom") }},
		{name: "handler panic", want: TaskFailed,
			handler: func(context.Context, any) (any, error) { panic("boom") }},
		{name: "endpoint stop", handler: parked, want: TaskLost,
			end: func(_ *testing.T, _ *Service, ep *Endpoint, _ *clock.Fake, _ string) { ep.Stop() }},
		{name: "heartbeat expiry", handler: parked, unlive: true, want: TaskLost,
			end: func(t *testing.T, svc *Service, _ *Endpoint, clk *clock.Fake, _ string) {
				clk.Advance(svc.HeartbeatTimeout + time.Second)
				if dead := svc.CheckHeartbeats(); len(dead) != 1 {
					t.Fatalf("dead endpoints = %v", dead)
				}
			}},
		{name: "cancel", handler: parked, want: TaskFailed,
			end: func(t *testing.T, svc *Service, _ *Endpoint, _ *clock.Fake, id string) {
				if !svc.CancelTask(id) {
					t.Fatal("task not cancelled")
				}
			}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var svc *Service
			var ep *Endpoint
			var fake *clock.Fake
			if tc.unlive {
				fake = clock.NewFake(time.Unix(0, 0))
				svc = NewService(fake, Costs{})
				ep = NewEndpoint("ep1", 1, fake)
				svc.RegisterEndpoint(ep)
			} else {
				var cancel context.CancelFunc
				svc, ep, cancel = newLiveService(t, 1)
				defer cancel()
			}
			fid, err := svc.Register(tc.name, tc.handler, "")
			if err != nil {
				t.Fatal(err)
			}
			before, after := NewCompletionSink(), NewCompletionSink()
			ids, err := svc.SubmitBatch([]TaskRequest{{FunctionID: fid, EndpointID: "ep1", Payload: "x"}})
			if err != nil {
				t.Fatal(err)
			}
			svc.Notify(ids, before)
			if tc.end != nil {
				tc.end(t, svc, ep, fake, ids[0])
			}
			if info := ended(t, svc, ids[0]); info.Status != tc.want {
				t.Fatalf("task ended %+v; want %s", info, tc.want)
			}
			svc.Notify(ids, after)
			for name, sink := range map[string]*CompletionSink{"before": before, "after": after} {
				got := collect(t, sink, 1)
				if len(got) != 1 || got[0].ID != ids[0] || got[0].Status != tc.want {
					t.Fatalf("sink subscribed %s the transition got %+v", name, got)
				}
			}
			// Nothing may trail the one delivery: a racing second
			// transition (the parked handler returning after a cancel, a
			// second heartbeat scan) is fenced by the terminal status.
			svc.CheckHeartbeats()
			if before.Pending() != 0 || after.Pending() != 0 {
				t.Fatalf("extra deliveries: before=%d after=%d", before.Pending(), after.Pending())
			}
		})
	}
}

// TestSilentEndpointsTaskIsDeliveredLost: the fabric watches its own
// endpoints. An endpoint whose every heartbeat is dropped is found dead by
// an endpoint's heartbeat tick -- its own, here, the only one -- and its
// running task reaches a subscribed sink LOST, with nothing outside the
// fabric checking heartbeats.
func TestSilentEndpointsTaskIsDeliveredLost(t *testing.T) {
	clk := clock.NewReal()
	svc := NewService(clk, Costs{})
	svc.HeartbeatTimeout = 20 * time.Millisecond
	svc.SetFaults(silent{})
	ep := NewEndpoint("ep1", 1, clk)
	svc.RegisterEndpoint(ep)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := ep.Start(ctx); err != nil {
		t.Fatal(err)
	}
	running := make(chan struct{})
	fid, err := svc.Register("parked", func(ctx context.Context, _ any) (any, error) {
		close(running)
		<-ctx.Done() // ends when the task does
		return nil, ctx.Err()
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	ids, err := svc.SubmitBatch([]TaskRequest{{FunctionID: fid, EndpointID: "ep1"}})
	if err != nil {
		t.Fatal(err)
	}
	sink := NewCompletionSink()
	svc.Notify(ids, sink)
	<-running
	got := collect(t, sink, 1)
	if got[0].ID != ids[0] || got[0].Status != TaskLost || got[0].Err != ErrEndpointStopped.Error() {
		t.Fatalf("task ended %+v, want LOST to its silent endpoint", got[0])
	}
	if n := svc.TasksLost.Load(); n != 1 {
		t.Fatalf("TasksLost = %d, want 1", n)
	}
}

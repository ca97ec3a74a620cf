package faas

import (
	"context"
	"testing"
	"time"
)

// collect drains the sink after each Ready token until n completions
// arrive or the deadline passes.
func collect(t *testing.T, sink *CompletionSink, n int) []TaskInfo {
	t.Helper()
	var got []TaskInfo
	deadline := time.After(10 * time.Second)
	for len(got) < n {
		select {
		case <-sink.Ready():
			got = append(got, sink.Drain()...)
		case <-deadline:
			t.Fatalf("timed out with %d/%d completions", len(got), n)
		}
	}
	return got
}

func TestNotifyDeliversCompletions(t *testing.T) {
	svc, _, cancel := newLiveService(t, 2)
	defer cancel()
	fid, err := svc.RegisterFunction("echo", echoHandler, "")
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]TaskRequest, 8)
	for i := range reqs {
		reqs[i] = TaskRequest{FunctionID: fid, EndpointID: "ep1", Payload: []byte("hi")}
	}
	sink := NewCompletionSink()
	ids, err := svc.SubmitBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	svc.Notify(ids, sink)

	got := collect(t, sink, len(ids))
	if len(got) != len(ids) {
		t.Fatalf("got %d completions, want %d", len(got), len(ids))
	}
	seen := make(map[string]bool)
	for _, info := range got {
		if seen[info.ID] {
			t.Fatalf("task %s delivered twice", info.ID)
		}
		seen[info.ID] = true
		if info.Status != TaskSuccess || string(info.Result) != "HI" {
			t.Fatalf("completion = %+v", info)
		}
	}
}

// TestNotifyAfterTerminal subscribes only after the task has finished:
// the terminal snapshot must be delivered immediately, so there is no
// submit/subscribe race window.
func TestNotifyAfterTerminal(t *testing.T) {
	svc, _, cancel := newLiveService(t, 1)
	defer cancel()
	fid, err := svc.RegisterFunction("echo", echoHandler, "")
	if err != nil {
		t.Fatal(err)
	}
	id, err := svc.Submit(TaskRequest{FunctionID: fid, EndpointID: "ep1", Payload: []byte("x")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Wait(id); err != nil {
		t.Fatal(err)
	}
	sink := NewCompletionSink()
	svc.Notify([]string{id}, sink)
	got := collect(t, sink, 1)
	if got[0].ID != id || got[0].Status != TaskSuccess {
		t.Fatalf("late subscription delivered %+v", got[0])
	}
}

// TestNotifyCoversLostTasks checks the endpoint-death terminal path
// (endpointLost → lose) also feeds subscribed sinks, since the
// event-driven pump depends on LOST notifications to resubmit families.
func TestNotifyCoversLostTasks(t *testing.T) {
	svc, ep, cancel := newLiveService(t, 1)
	defer cancel()
	block := make(chan struct{})
	fid, err := svc.RegisterFunction("stall", func(ctx context.Context, _ []byte) ([]byte, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return nil, nil
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	defer close(block)
	id, err := svc.Submit(TaskRequest{FunctionID: fid, EndpointID: "ep1", Payload: nil})
	if err != nil {
		t.Fatal(err)
	}
	sink := NewCompletionSink()
	svc.Notify([]string{id}, sink)
	ep.Stop()
	got := collect(t, sink, 1)
	if got[0].Status != TaskLost {
		t.Fatalf("status = %v, want LOST", got[0].Status)
	}
	if got[0].Err != ErrEndpointStopped.Error() {
		t.Fatalf("err = %q", got[0].Err)
	}
}

func TestNotifyUnknownIDIgnored(t *testing.T) {
	svc, _, cancel := newLiveService(t, 1)
	defer cancel()
	sink := NewCompletionSink()
	svc.Notify([]string{"task-nope"}, sink)
	if sink.Pending() != 0 {
		t.Fatal("unknown ID produced a completion")
	}
	select {
	case <-sink.Ready():
		t.Fatal("unknown ID signaled the sink")
	default:
	}
}

// TestNotifyDeliversExactlyOnceUnderRace spins many tasks finishing
// while Notify subscriptions race them: every task must be delivered to
// its sink exactly once, from whichever side (subscribe-time snapshot or
// terminal push) wins.
func TestNotifyDeliversExactlyOnceUnderRace(t *testing.T) {
	svc, _, cancel := newLiveService(t, 4)
	defer cancel()
	fid, err := svc.RegisterFunction("echo", echoHandler, "")
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	sink := NewCompletionSink()
	var ids []string
	for i := 0; i < n; i++ {
		id, err := svc.Submit(TaskRequest{FunctionID: fid, EndpointID: "ep1", Payload: []byte("r")})
		if err != nil {
			t.Fatal(err)
		}
		svc.Notify([]string{id}, sink)
		ids = append(ids, id)
	}
	got := collect(t, sink, n)
	if len(got) != n {
		t.Fatalf("got %d completions, want %d", len(got), n)
	}
	seen := make(map[string]int)
	for _, info := range got {
		seen[info.ID]++
	}
	for _, id := range ids {
		if seen[id] != 1 {
			t.Fatalf("task %s delivered %d times", id, seen[id])
		}
	}
}

package faas

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"xtract/internal/clock"
	"xtract/internal/faultinject"
)

func TestCancelPendingTaskNeverRuns(t *testing.T) {
	svc, _, cancel := newLiveService(t, 1)
	defer cancel()

	block := make(chan struct{})
	ran := make(chan string, 8)
	fid, err := svc.RegisterFunction("blocker", func(_ context.Context, p []byte) ([]byte, error) {
		ran <- string(p)
		<-block
		return p, nil
	}, "")
	if err != nil {
		t.Fatal(err)
	}

	// First task occupies the only worker; the second stays queued.
	first := submit(t, svc, TaskRequest{FunctionID: fid, EndpointID: "ep1", Payload: []byte("a")})
	<-ran
	second := submit(t, svc, TaskRequest{FunctionID: fid, EndpointID: "ep1", Payload: []byte("b")})

	if !svc.CancelTask(second) {
		t.Fatal("pending task not cancelled")
	}
	if info := ended(t, svc, second); info.Status != TaskFailed || info.Err != ErrTaskCancelled.Error() {
		t.Fatalf("cancelled task info = %+v", info)
	}

	// Cancelling again — or cancelling an unknown task — reports false.
	if svc.CancelTask(second) {
		t.Fatal("second cancel of a terminal task returned true")
	}
	if svc.CancelTask("nope") {
		t.Fatal("unknown task cancelled")
	}

	// The worker frees up and must skip the cancelled task entirely.
	close(block)
	if info := ended(t, svc, first); info.Status != TaskSuccess {
		t.Fatalf("first task info = %+v", info)
	}
	select {
	case p := <-ran:
		t.Fatalf("cancelled task executed with payload %q", p)
	case <-time.After(20 * time.Millisecond):
	}
}

func TestCancelRunningTaskDiscardsLateResult(t *testing.T) {
	svc, _, cancel := newLiveService(t, 1)
	defer cancel()

	block := make(chan struct{})
	started := make(chan struct{})
	fid, err := svc.RegisterFunction("blocker", func(context.Context, []byte) ([]byte, error) {
		close(started)
		<-block
		return []byte("late"), nil
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	id := submit(t, svc, TaskRequest{FunctionID: fid, EndpointID: "ep1"})
	<-started

	if !svc.CancelTask(id) {
		t.Fatal("running task not cancelled")
	}
	if info := ended(t, svc, id); info.Status != TaskFailed || info.Err != ErrTaskCancelled.Error() {
		t.Fatalf("info = %+v", info)
	}

	// The handler finishes after the cancel: its result must not
	// resurrect the task (the terminal-status fence in taskFinished).
	close(block)
	time.Sleep(10 * time.Millisecond)
	if again := ended(t, svc, id); again.Status != TaskFailed || string(again.Result) == "late" {
		t.Fatalf("late completion overwrote the cancellation: %+v", again)
	}
}

func TestSlowFaultStretchesExecution(t *testing.T) {
	svc, _, cancel := newLiveService(t, 1)
	defer cancel()
	svc.SetFaults(faultinject.New(faultinject.Config{
		Seed:    1,
		Slow:    faultinject.Rule{Prob: 1, Max: 1},
		SlowFor: 60 * time.Millisecond,
	}))

	fid, err := svc.RegisterFunction("echo", echoHandler, "")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	info := ended(t, svc, submit(t, svc, TaskRequest{FunctionID: fid, EndpointID: "ep1", Payload: []byte("x")}))
	if info.Status != TaskSuccess || string(info.Result) != "X" {
		t.Fatalf("slowed task must still complete normally: %+v", info)
	}
	if elapsed := time.Since(start); elapsed < 60*time.Millisecond {
		t.Fatalf("task finished in %v, slow fault (60ms) not applied", elapsed)
	}

	// The budget is spent: the next task runs at full speed.
	start = time.Now()
	if info := ended(t, svc, submit(t, svc, TaskRequest{FunctionID: fid, EndpointID: "ep1", Payload: []byte("y")})); info.Status != TaskSuccess {
		t.Fatalf("info = %+v", info)
	}
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Fatalf("second task took %v, slow budget not bounded", elapsed)
	}
}

func TestCancelDuringSlowSleepAbortsPromptly(t *testing.T) {
	svc, _, cancel := newLiveService(t, 1)
	defer cancel()
	svc.SetFaults(faultinject.New(faultinject.Config{
		Seed:    1,
		Slow:    faultinject.Rule{Prob: 1, Max: 1},
		SlowFor: 10 * time.Second,
	}))

	executed := make(chan struct{}, 1)
	fid, err := svc.RegisterFunction("mark", func(context.Context, []byte) ([]byte, error) {
		executed <- struct{}{}
		return nil, nil
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	id := submit(t, svc, TaskRequest{FunctionID: fid, EndpointID: "ep1"})

	// Give the worker a moment to enter the injected straggle, then kill
	// the task: the sleep must abort instead of running out the full 10s,
	// and the handler must never execute.
	time.Sleep(5 * time.Millisecond)
	start := time.Now()
	if !svc.CancelTask(id) {
		t.Fatal("task not cancelled")
	}
	fid2, _ := svc.RegisterFunction("echo", echoHandler, "")
	if info := ended(t, svc, submit(t, svc, TaskRequest{FunctionID: fid2, EndpointID: "ep1", Payload: []byte("z")})); info.Status != TaskSuccess {
		t.Fatalf("worker still wedged in the straggle: %+v", info)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("worker freed after %v, cancel did not abort the sleep", elapsed)
	}
	select {
	case <-executed:
		t.Fatal("cancelled task's handler executed after the straggle")
	default:
	}
}

// TestLostTaskHandlerStopsBetweenSteps: a task declared lost while its
// handler runs -- here its endpoint misses its heartbeats -- has its
// handler's context ended, so a handler that checks it between steps
// runs no step after the loss, though its endpoint keeps running.
func TestLostTaskHandlerStopsBetweenSteps(t *testing.T) {
	clk := clock.NewFake(time.Unix(0, 0))
	svc := NewService(clk, Costs{})
	svc.HeartbeatTimeout = 10 * time.Second
	svc.SetFaults(silent{})
	ep := NewEndpoint("ep1", 1, clk)
	svc.RegisterEndpoint(ep)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := ep.Start(ctx); err != nil {
		t.Fatal(err)
	}
	inStep, next := make(chan int, 3), make(chan struct{})
	var ran atomic.Int32
	stopped := make(chan error, 1)
	fid, err := svc.RegisterFunction("steps", func(ctx context.Context, _ []byte) ([]byte, error) {
		for step := 0; step < 3; step++ {
			if err := ctx.Err(); err != nil {
				stopped <- err
				return nil, err
			}
			ran.Add(1)
			inStep <- step
			<-next
		}
		stopped <- nil
		return []byte("done"), nil
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	id := submit(t, svc, TaskRequest{FunctionID: fid, EndpointID: "ep1"})
	<-inStep
	// The endpoint's own heartbeat tick finds it silent: nothing here
	// checks its heartbeats.
	clk.Advance(svc.HeartbeatTimeout + time.Second)
	if info := ended(t, svc, id); info.Status != TaskLost {
		t.Fatalf("status = %v, want lost", info.Status)
	}
	close(next) // the step in flight finishes
	select {
	case err := <-stopped:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("handler ended with %v, want a cancelled context", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("handler did not return")
	}
	if n := ran.Load(); n != 1 {
		t.Fatalf("handler ran %d steps, want the one in flight at the loss", n)
	}
	if ep.Stopped() {
		t.Fatal("endpoint stopped; the loss was its heartbeat's")
	}
}

// silent drops every heartbeat and injects nothing else.
type silent struct{}

func (silent) DispatchFault(string) error     { return nil }
func (silent) HeartbeatDrop(string) bool      { return true }
func (silent) EndpointCrash(string) bool      { return false }
func (silent) SlowFault(string) time.Duration { return 0 }

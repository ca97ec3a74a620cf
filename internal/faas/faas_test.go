package faas

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"xtract/internal/clock"
)

// echoHandler returns its payload uppercased.
func echoHandler(_ context.Context, payload any) (any, error) {
	s, _ := payload.(string)
	return strings.ToUpper(s), nil
}

func newLiveService(t *testing.T, workers int) (*Service, *Endpoint, context.CancelFunc) {
	t.Helper()
	clk := clock.NewReal()
	svc := NewService(clk, Costs{})
	ep := NewEndpoint("ep1", workers, clk)
	svc.RegisterEndpoint(ep)
	ctx, cancel := context.WithCancel(context.Background())
	if err := ep.Start(ctx); err != nil {
		t.Fatal(err)
	}
	return svc, ep, cancel
}

// submit submits one request as a batch of one and returns its task ID.
func submit(t testing.TB, svc *Service, req TaskRequest) string {
	t.Helper()
	ids, err := svc.SubmitBatch([]TaskRequest{req})
	if err != nil {
		t.Fatal(err)
	}
	return ids[0]
}

// ended returns a task's end the one way the fabric reports it, through
// Notify: at once for a task that has ended, else when it does.
func ended(t testing.TB, svc *Service, id string) TaskInfo {
	t.Helper()
	sink := NewCompletionSink()
	svc.Notify([]string{id}, sink)
	return collect(t, sink, 1)[0]
}

func TestSubmitAndWaitSuccess(t *testing.T) {
	svc, _, cancel := newLiveService(t, 2)
	defer cancel()
	fid, err := svc.Register("echo", echoHandler, "")
	if err != nil {
		t.Fatal(err)
	}
	info := ended(t, svc, submit(t, svc, TaskRequest{FunctionID: fid, EndpointID: "ep1", Payload: "hi"}))
	if info.Status != TaskSuccess || info.Result != "HI" {
		t.Fatalf("info = %+v", info)
	}
	if info.Finished.Before(info.Submitted) {
		t.Fatal("finished before submitted")
	}
}

func TestSubmitUnknownFunctionAndEndpoint(t *testing.T) {
	svc, _, cancel := newLiveService(t, 1)
	defer cancel()
	if _, err := svc.SubmitBatch([]TaskRequest{{FunctionID: "nope", EndpointID: "ep1"}}); !errors.Is(err, ErrUnknownFunction) {
		t.Fatalf("err = %v", err)
	}
	fid, _ := svc.Register("echo", echoHandler, "")
	if _, err := svc.SubmitBatch([]TaskRequest{{FunctionID: fid, EndpointID: "nope"}}); !errors.Is(err, ErrUnknownEndpoint) {
		t.Fatalf("err = %v", err)
	}
}

func TestRegisterFunctionUnknownContainer(t *testing.T) {
	clk := clock.NewReal()
	svc := NewService(clk, Costs{})
	if _, err := svc.RegisterFunction("f", func(context.Context, []byte) ([]byte, error) { return nil, nil }, "bogus"); !errors.Is(err, ErrUnknownContainer) {
		t.Fatalf("err = %v", err)
	}
}

// TestRegisterFunctionAdaptsBytes: a function over bytes runs through
// Register — a []byte payload reaches it as is, any other as nil — and its
// bytes come back as the task's result.
func TestRegisterFunctionAdaptsBytes(t *testing.T) {
	svc, _, cancel := newLiveService(t, 1)
	defer cancel()
	fid, err := svc.RegisterFunction("upper", func(_ context.Context, p []byte) ([]byte, error) {
		if p == nil {
			return []byte("nil"), nil
		}
		return bytes.ToUpper(p), nil
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		payload any
		want    string
	}{{[]byte("hi"), "HI"}, {"not bytes", "nil"}, {nil, "nil"}} {
		info := ended(t, svc, submit(t, svc, TaskRequest{FunctionID: fid, EndpointID: "ep1", Payload: tc.payload}))
		if got, ok := info.Result.([]byte); info.Status != TaskSuccess || !ok || string(got) != tc.want {
			t.Errorf("payload %#v: %s, result %#v; want %q", tc.payload, info.Status, info.Result, tc.want)
		}
	}
}

func TestTaskFailure(t *testing.T) {
	svc, _, cancel := newLiveService(t, 1)
	defer cancel()
	fid, _ := svc.Register("boom", func(context.Context, any) (any, error) {
		return nil, errors.New("extractor exploded")
	}, "")
	info := ended(t, svc, submit(t, svc, TaskRequest{FunctionID: fid, EndpointID: "ep1"}))
	if info.Status != TaskFailed || !strings.Contains(info.Err, "exploded") {
		t.Fatalf("info = %+v", info)
	}
}

func TestBatchSubmitAndPoll(t *testing.T) {
	svc, _, cancel := newLiveService(t, 4)
	defer cancel()
	fid, _ := svc.Register("echo", echoHandler, "")
	reqs := make([]TaskRequest, 16)
	for i := range reqs {
		reqs[i] = TaskRequest{FunctionID: fid, EndpointID: "ep1", Payload: fmt.Sprintf("p%d", i)}
	}
	ids, err := svc.SubmitBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 16 {
		t.Fatalf("ids = %d", len(ids))
	}
	sink := NewCompletionSink()
	svc.Notify(ids, sink)
	byID := make(map[string]TaskInfo)
	for _, info := range collect(t, sink, len(ids)) {
		byID[info.ID] = info
	}
	for i, id := range ids {
		info := byID[id]
		if info.Status != TaskSuccess {
			t.Fatalf("task %d status %v", i, info.Status)
		}
		if want := strings.ToUpper(fmt.Sprintf("p%d", i)); info.Result != want {
			t.Fatalf("task %d result %q, want %q (order preserved)", i, info.Result, want)
		}
	}
	if svc.TasksSubmitted.Load() != 16 || svc.TasksCompleted.Load() != 16 {
		t.Fatalf("counters = %d/%d", svc.TasksSubmitted.Load(), svc.TasksCompleted.Load())
	}
}

// A batch rejected for its last request must not leave records for the
// requests before it.
func TestRejectedBatchCreatesNoTaskRecords(t *testing.T) {
	svc, _, cancel := newLiveService(t, 1)
	defer cancel()
	fid, _ := svc.Register("echo", echoHandler, "")
	good := TaskRequest{FunctionID: fid, EndpointID: "ep1"}
	before := svc.TaskRecords()
	for _, tc := range []struct {
		bad  TaskRequest
		want error
	}{
		{TaskRequest{FunctionID: "nope", EndpointID: "ep1"}, ErrUnknownFunction},
		{TaskRequest{FunctionID: fid, EndpointID: "nope"}, ErrUnknownEndpoint},
	} {
		ids, err := svc.SubmitBatch([]TaskRequest{good, good, tc.bad})
		if !errors.Is(err, tc.want) || ids != nil {
			t.Errorf("SubmitBatch = %v, %v; want nil, %v", ids, err, tc.want)
		}
		if got := svc.TaskRecords(); got != before {
			t.Errorf("after %v: TaskRecords = %d, want %d", tc.want, got, before)
		}
	}
	if n := svc.TasksSubmitted.Load(); n != 0 {
		t.Errorf("TasksSubmitted = %d, want 0", n)
	}
}

// TestPollBatchUnknownID: an ID the fabric does not know -- never issued,
// or forgotten after its end was consumed -- has no end to report and
// cannot be cancelled.
func TestPollBatchUnknownID(t *testing.T) {
	svc, _, cancel := newLiveService(t, 1)
	defer cancel()
	fid, _ := svc.Register("echo", echoHandler, "")
	id := submit(t, svc, TaskRequest{FunctionID: fid, EndpointID: "ep1"})
	ended(t, svc, id)
	svc.Forget(id)
	sink := NewCompletionSink()
	svc.Notify([]string{"bogus", id}, sink)
	if n := sink.Pending(); n != 0 {
		t.Fatalf("unknown IDs delivered %d ends", n)
	}
	if svc.CancelTask("bogus") || svc.CancelTask(id) {
		t.Fatal("an unknown task was cancelled")
	}
	if n := svc.TaskRecords(); n != 0 {
		t.Fatalf("TaskRecords = %d after Forget, want 0", n)
	}
}

func TestConcurrentExecutionUsesWorkers(t *testing.T) {
	// With 8 workers, 8 tasks that each block on a shared barrier must all
	// start concurrently.
	svc, _, cancel := newLiveService(t, 8)
	defer cancel()
	var mu sync.Mutex
	running := 0
	maxRunning := 0
	release := make(chan struct{})
	fid, _ := svc.Register("block", func(context.Context, any) (any, error) {
		mu.Lock()
		running++
		if running > maxRunning {
			maxRunning = running
		}
		mu.Unlock()
		<-release
		mu.Lock()
		running--
		mu.Unlock()
		return nil, nil
	}, "")
	reqs := make([]TaskRequest, 8)
	for i := range reqs {
		reqs[i] = TaskRequest{FunctionID: fid, EndpointID: "ep1"}
	}
	ids, _ := svc.SubmitBatch(reqs)
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		r := running
		mu.Unlock()
		if r == 8 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d tasks running concurrently", r)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	for _, id := range ids {
		ended(t, svc, id)
	}
	if maxRunning != 8 {
		t.Fatalf("maxRunning = %d, want 8", maxRunning)
	}
}

func TestContainerColdAndWarmStarts(t *testing.T) {
	clk := clock.NewFake(time.Unix(0, 0))
	cm := NewContainerManager(clk, func(string) time.Duration { return 70 * time.Second })
	start := clk.Now()
	done := make(chan struct{})
	go func() {
		cm.Acquire("c1") // cold
		close(done)
	}()
	for clk.PendingTimers() == 0 {
		time.Sleep(time.Millisecond)
	}
	clk.Advance(70 * time.Second)
	<-done
	if clk.Since(start) != 70*time.Second {
		t.Fatalf("cold start took %v", clk.Since(start))
	}
	cm.Release("c1")
	if cm.WarmCount("c1") != 1 {
		t.Fatalf("warm = %d", cm.WarmCount("c1"))
	}
	cm.Acquire("c1") // warm: no sleep needed
	if cm.ColdStarts.Load() != 1 || cm.WarmHits.Load() != 1 {
		t.Fatalf("cold/warm = %d/%d", cm.ColdStarts.Load(), cm.WarmHits.Load())
	}
}

func TestContainerEmptyIDFree(t *testing.T) {
	clk := clock.NewFake(time.Unix(0, 0))
	cm := NewContainerManager(clk, func(string) time.Duration { return time.Hour })
	cm.Acquire("")
	cm.Release("")
	if cm.ColdStarts.Load() != 0 {
		t.Fatal("empty container should be free")
	}
}

func TestEndpointStopMarksTasksLost(t *testing.T) {
	svc, ep, cancel := newLiveService(t, 1)
	defer cancel()
	started := make(chan struct{})
	block := make(chan struct{})
	fid, _ := svc.Register("block", func(context.Context, any) (any, error) {
		close(started)
		<-block
		return "late", nil
	}, "")
	// One running + three queued.
	ids, _ := svc.SubmitBatch([]TaskRequest{
		{FunctionID: fid, EndpointID: "ep1"},
		{FunctionID: fid, EndpointID: "ep1"},
		{FunctionID: fid, EndpointID: "ep1"},
		{FunctionID: fid, EndpointID: "ep1"},
	})
	<-started
	ep.Stop()
	for _, id := range ids {
		if info := ended(t, svc, id); info.Status != TaskLost {
			t.Fatalf("task %s status = %v, want LOST", id, info.Status)
		}
	}
	if svc.TasksLost.Load() != 4 {
		t.Fatalf("TasksLost = %d", svc.TasksLost.Load())
	}
	close(block)
	// A late handler completion must not flip the lost status.
	time.Sleep(10 * time.Millisecond)
	if info := ended(t, svc, ids[0]); info.Status != TaskLost {
		t.Fatalf("late completion overwrote LOST: %v", info.Status)
	}
	// Submitting to a stopped endpoint marks the task lost immediately.
	if info2 := ended(t, svc, submit(t, svc, TaskRequest{FunctionID: fid, EndpointID: "ep1"})); info2.Status != TaskLost {
		t.Fatalf("submit-after-stop status = %v", info2.Status)
	}
}

func TestHeartbeatExpiryMarksLost(t *testing.T) {
	clk := clock.NewFake(time.Unix(0, 0))
	svc := NewService(clk, Costs{})
	svc.HeartbeatTimeout = 10 * time.Second
	ep := NewEndpoint("ep1", 1, clk)
	svc.RegisterEndpoint(ep)
	// Endpoint never started: no heartbeats after registration, and the
	// queued task sits forever.
	fid, _ := svc.Register("echo", echoHandler, "")
	id := submit(t, svc, TaskRequest{FunctionID: fid, EndpointID: "ep1"})

	clk.Advance(11 * time.Second)
	dead := svc.CheckHeartbeats()
	if len(dead) != 1 || dead[0] != "ep1" {
		t.Fatalf("dead = %v", dead)
	}
	if info := ended(t, svc, id); info.Status != TaskLost {
		t.Fatalf("status = %v", info.Status)
	}
	// A second check must not re-report the endpoint.
	if dead := svc.CheckHeartbeats(); len(dead) != 0 {
		t.Fatalf("re-reported dead endpoints: %v", dead)
	}
}

func TestCostsChargedOnVirtualClock(t *testing.T) {
	clk := clock.NewFake(time.Unix(0, 0))
	svc := NewService(clk, Costs{
		AuthPerRequest: 100 * time.Millisecond,
		SubmitPerBatch: 200 * time.Millisecond,
		SubmitPerTask:  10 * time.Millisecond,
	})
	ep := NewEndpoint("ep1", 1, clk)
	svc.RegisterEndpoint(ep)
	fid, _ := svc.Register("echo", echoHandler, "")

	done := make(chan time.Duration, 1)
	start := clk.Now()
	go func() {
		reqs := make([]TaskRequest, 5)
		for i := range reqs {
			reqs[i] = TaskRequest{FunctionID: fid, EndpointID: "ep1"}
		}
		if _, err := svc.SubmitBatch(reqs); err != nil {
			t.Error(err)
		}
		done <- clk.Since(start)
	}()
	for clk.PendingTimers() == 0 {
		time.Sleep(time.Millisecond)
	}
	// 100ms auth + 200ms batch + 5*10ms per-task = 350ms
	clk.Advance(350 * time.Millisecond)
	if d := <-done; d != 350*time.Millisecond {
		t.Fatalf("submit cost = %v, want 350ms", d)
	}
}

func TestEndpointRequiresRegistration(t *testing.T) {
	ep := NewEndpoint("lonely", 1, clock.NewReal())
	if err := ep.Start(context.Background()); err == nil {
		t.Fatal("Start on unregistered endpoint should fail")
	}
}

func TestStartAfterStopFails(t *testing.T) {
	svc, ep, cancel := newLiveService(t, 1)
	defer cancel()
	_ = svc
	ep.Stop()
	if err := ep.Start(context.Background()); !errors.Is(err, ErrEndpointStopped) {
		t.Fatalf("err = %v", err)
	}
	if !ep.Stopped() {
		t.Fatal("Stopped() = false")
	}
}

func TestTaskStatusStrings(t *testing.T) {
	for s, want := range map[TaskStatus]string{
		TaskPending: "PENDING", TaskRunning: "RUNNING", TaskSuccess: "SUCCESS",
		TaskFailed: "FAILED", TaskLost: "LOST",
	} {
		if s.String() != want {
			t.Errorf("%v != %s", s, want)
		}
	}
	if TaskStatus(99).String() == "" {
		t.Error("unknown status should render")
	}
	if TaskPending.Terminal() || TaskRunning.Terminal() {
		t.Error("non-terminal misreported")
	}
	if !TaskSuccess.Terminal() || !TaskFailed.Terminal() || !TaskLost.Terminal() {
		t.Error("terminal misreported")
	}
}

func TestFunctionRunsInRegisteredContainer(t *testing.T) {
	clk := clock.NewReal()
	svc := NewService(clk, Costs{})
	cid := svc.RegisterContainer("matio", 5*time.Millisecond)
	ep := NewEndpoint("ep1", 2, clk)
	svc.RegisterEndpoint(ep)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := ep.Start(ctx); err != nil {
		t.Fatal(err)
	}
	fid, err := svc.Register("m", echoHandler, cid)
	if err != nil {
		t.Fatal(err)
	}
	if info := ended(t, svc, submit(t, svc, TaskRequest{FunctionID: fid, EndpointID: "ep1", Payload: "x"})); info.Status != TaskSuccess {
		t.Fatalf("status = %v", info.Status)
	}
	if ep.Containers().ColdStarts.Load() != 1 {
		t.Fatalf("cold starts = %d", ep.Containers().ColdStarts.Load())
	}
	// Second task: warm hit.
	ended(t, svc, submit(t, svc, TaskRequest{FunctionID: fid, EndpointID: "ep1", Payload: "y"}))
	if ep.Containers().WarmHits.Load() != 1 {
		t.Fatalf("warm hits = %d", ep.Containers().WarmHits.Load())
	}
}

func TestManyTasksThroughput(t *testing.T) {
	svc, ep, cancel := newLiveService(t, 8)
	defer cancel()
	fid, _ := svc.Register("echo", echoHandler, "")
	const n = 500
	reqs := make([]TaskRequest, n)
	for i := range reqs {
		reqs[i] = TaskRequest{FunctionID: fid, EndpointID: "ep1", Payload: "x"}
	}
	ids, err := svc.SubmitBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	sink := NewCompletionSink()
	svc.Notify(ids, sink)
	for _, info := range collect(t, sink, n) {
		if info.Status != TaskSuccess {
			t.Fatalf("task %s: %v %s", info.ID, info.Status, info.Err)
		}
	}
	if got := ep.TasksExecuted.Load(); got != n {
		t.Fatalf("executed = %d, want %d", got, n)
	}
}

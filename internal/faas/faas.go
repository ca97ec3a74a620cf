// Package faas implements the federated Function-as-a-Service fabric that
// Xtract builds on — an in-process funcX: a central service where
// functions, containers, and endpoints are registered; batch task
// submission and completion events; containerized workers with cold/warm
// starts; heartbeats, which the endpoints themselves check; and lost-task
// detection when an endpoint's allocation ends (the Figure 8
// checkpoint/restart path).
package faas

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"xtract/internal/clock"
	"xtract/internal/obs"
)

// Errors returned by the service.
var (
	ErrUnknownFunction  = errors.New("faas: unknown function")
	ErrUnknownEndpoint  = errors.New("faas: unknown endpoint")
	ErrUnknownContainer = errors.New("faas: unknown container")
	ErrEndpointStopped  = errors.New("faas: endpoint stopped")
	// ErrTaskCancelled is the error recorded on tasks killed via
	// CancelTask — hedged duplicates whose sibling attempt won.
	ErrTaskCancelled = errors.New("faas: task cancelled")
)

// Handler is the code behind a registered function. Payloads are opaque
// bytes (Xtract serializes family batches into them); results likewise.
// The payload is the submitter's slice, shared with it: a handler reads
// it and never modifies it.
type Handler func(ctx context.Context, payload []byte) ([]byte, error)

// FaultHook injects failures into the fabric for chaos testing.
// internal/faultinject satisfies it structurally; a nil hook is a no-op.
type FaultHook interface {
	// DispatchFault may fail the service→endpoint delivery of one task;
	// a non-nil error marks the task lost without reaching the endpoint.
	DispatchFault(endpointID string) error
	// HeartbeatDrop silences one heartbeat tick of the endpoint.
	HeartbeatDrop(endpointID string) bool
	// EndpointCrash stops the endpoint at a heartbeat tick, simulating
	// an allocation ending mid-run.
	EndpointCrash(endpointID string) bool
	// SlowFault stretches one task execution by the returned duration
	// (zero = full speed), modeling a straggler worker without failing
	// the task.
	SlowFault(endpointID string) time.Duration
}

// TaskStatus is the lifecycle state of a submitted task.
type TaskStatus int

// Task states.
const (
	TaskPending TaskStatus = iota
	TaskRunning
	TaskSuccess
	TaskFailed
	// TaskLost means the executing endpoint disappeared (allocation ended
	// or heartbeat expired) before the task completed. Callers should
	// resubmit, as Xtract does for whole families.
	TaskLost
)

// String implements fmt.Stringer.
func (s TaskStatus) String() string {
	switch s {
	case TaskPending:
		return "PENDING"
	case TaskRunning:
		return "RUNNING"
	case TaskSuccess:
		return "SUCCESS"
	case TaskFailed:
		return "FAILED"
	case TaskLost:
		return "LOST"
	default:
		return fmt.Sprintf("TaskStatus(%d)", int(s))
	}
}

// Terminal reports whether the status is final.
func (s TaskStatus) Terminal() bool {
	return s == TaskSuccess || s == TaskFailed || s == TaskLost
}

// TaskRequest asks for one function invocation on one endpoint.
type TaskRequest struct {
	FunctionID string
	EndpointID string
	// Payload is kept as given, not copied: once submitted it belongs to
	// the task, and neither the submitter nor the handler modifies it.
	Payload []byte
}

// TaskInfo is a snapshot of a task, as its completion event carries it.
type TaskInfo struct {
	ID         string
	FunctionID string
	EndpointID string
	Status     TaskStatus
	Result     []byte
	Err        string
	Submitted  time.Time
	Started    time.Time
	Finished   time.Time
}

// Costs models the control-plane latencies of the FaaS service, the knobs
// behind the paper's Figure 3 breakdown. All default to zero. SubmitBatch
// charges the first four by schedule (see there).
type Costs struct {
	// AuthPerRequest models Globus Auth validation per web request, once
	// per SubmitBatch.
	AuthPerRequest time.Duration
	// SubmitPerBatch is charged once per SubmitBatch call, regardless of
	// batch size — this is what funcX batching amortizes.
	SubmitPerBatch time.Duration
	// SubmitPerTask is charged per task within a batch (serialization).
	SubmitPerTask time.Duration
	// DispatchPerTask is the service→endpoint delivery latency, charged
	// per task in request order after the submit costs.
	DispatchPerTask time.Duration
	// ResultPerTask is the endpoint→service result return latency, slept
	// by the worker that ran the task before the result is published.
	ResultPerTask time.Duration
}

type function struct {
	id        string
	name      string
	handler   Handler
	container string
}

type task struct {
	mu      sync.Mutex
	info    TaskInfo
	payload []byte
	// stop ends the context the handler runs under; set while it runs.
	stop context.CancelFunc
	// subs are completion sinks to notify when the task turns terminal.
	subs []*CompletionSink
}

// publishUnlock ends a task that has just been given a terminal status:
// its handler's context ends, t.mu (held by the caller) is dropped, and
// every subscribed sink receives the final snapshot.
func (t *task) publishUnlock() {
	if t.stop != nil {
		t.stop()
		t.stop = nil
	}
	info, subs := t.info, t.subs
	t.subs = nil
	t.mu.Unlock()
	for _, sub := range subs {
		sub.push(info)
	}
}

// CompletionSink is a terminal-event subscription endpoint: tasks
// registered on it via Service.Notify deliver their final TaskInfo here
// the moment they turn terminal. Wakeups are coalesced (Ready holds at
// most one token) and delivery never blocks the fabric, so one sink can
// fan in completions from any number of tasks; consumers drain with
// Drain after each Ready token.
type CompletionSink struct {
	mu    sync.Mutex
	done  []TaskInfo
	ready chan struct{}
}

// NewCompletionSink returns an empty sink.
func NewCompletionSink() *CompletionSink {
	return &CompletionSink{ready: make(chan struct{}, 1)}
}

// Ready returns the sink's coalesced wakeup channel: a token arrives when
// completions are pending. Consume the token, Drain, and block again.
func (c *CompletionSink) Ready() <-chan struct{} { return c.ready }

// Drain returns and clears every pending completion, in arrival order.
func (c *CompletionSink) Drain() []TaskInfo {
	c.mu.Lock()
	out := c.done
	c.done = nil
	c.mu.Unlock()
	return out
}

// Pending reports how many completions await Drain.
func (c *CompletionSink) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.done)
}

// push appends one completion and sets the wakeup token (non-blocking).
func (c *CompletionSink) push(info TaskInfo) {
	c.mu.Lock()
	c.done = append(c.done, info)
	c.mu.Unlock()
	select {
	case c.ready <- struct{}{}:
	default:
	}
}

// Service is the central FaaS web service.
type Service struct {
	clk   clock.Clock
	costs Costs

	mu         sync.Mutex
	functions  map[string]*function
	containers map[string]time.Duration // container -> cold start cost
	endpoints  map[string]*Endpoint
	tasks      map[string]*task
	seq        int

	// HeartbeatTimeout: endpoints whose last heartbeat is older than this
	// are considered dead and their in-flight tasks marked lost. Set it
	// before any endpoint starts: each ticks at a third of it.
	HeartbeatTimeout time.Duration
	lastHeartbeat    map[string]time.Time

	// faults, when set, injects dispatch/heartbeat/crash failures.
	faults FaultHook

	// Task lifecycle counts. A task that ran to the end is counted in
	// exactly one of TasksCompleted (its handler returned a result) and
	// TasksFailed (it returned an error); ColdStarts and WarmHits sum
	// every endpoint's container acquisitions.
	TasksSubmitted atomic.Int64
	TasksCompleted atomic.Int64
	TasksFailed    atomic.Int64
	TasksLost      atomic.Int64
	HandlerPanics  atomic.Int64
	ColdStarts     atomic.Int64
	WarmHits       atomic.Int64

	// Observability handles (nil-safe when Instrument is never called).
	obsReg         *obs.Registry
	obsTaskLatency *obs.Histogram
	obsColdStart   *obs.Histogram
}

// SetFaults installs (or clears, with nil) the fabric's fault hook.
func (s *Service) SetFaults(h FaultHook) {
	s.mu.Lock()
	s.faults = h
	s.mu.Unlock()
}

// faultHook reads the installed hook; nil means no injection.
func (s *Service) faultHook() FaultHook {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.faults
}

// NewService returns an empty service with the given control-plane costs.
func NewService(clk clock.Clock, costs Costs) *Service {
	return &Service{
		clk:              clk,
		costs:            costs,
		functions:        make(map[string]*function),
		containers:       make(map[string]time.Duration),
		endpoints:        make(map[string]*Endpoint),
		tasks:            make(map[string]*task),
		lastHeartbeat:    make(map[string]time.Time),
		HeartbeatTimeout: 30 * time.Second,
	}
}

// Instrument exposes the fabric's counters on the observability registry
// (read at scrape time) and registers its histograms: the end-to-end
// task latency, container cold-start durations, and a per-endpoint
// queue-depth gauge for every endpoint (including ones registered after
// this call).
func (s *Service) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.CounterFunc("xtract_faas_tasks_submitted_total",
		"Tasks submitted to the FaaS fabric.", nil, s.TasksSubmitted.Load)
	reg.CounterFunc("xtract_faas_tasks_completed_total",
		"Tasks that finished successfully.", nil, s.TasksCompleted.Load)
	reg.CounterFunc("xtract_faas_tasks_failed_total",
		"Tasks whose handler returned an error.", nil, s.TasksFailed.Load)
	reg.CounterFunc("xtract_faas_tasks_lost_total",
		"Tasks lost to a dead endpoint or failed dispatch.", nil, s.TasksLost.Load)
	reg.CounterFunc("xtract_faas_cold_starts_total",
		"Container cold starts across all endpoints.", nil, s.ColdStarts.Load)
	reg.CounterFunc("xtract_faas_warm_hits_total",
		"Container acquisitions served from the warm pool.", nil, s.WarmHits.Load)
	reg.CounterFunc("xtract_faas_handler_panics_total",
		"Handler panics recovered by endpoint workers.", nil, s.HandlerPanics.Load)
	s.obsTaskLatency = reg.Histogram("xtract_faas_task_latency_seconds",
		"Submit-to-finish latency of successful and failed tasks.", nil)
	s.obsColdStart = reg.Histogram("xtract_faas_cold_start_seconds",
		"Container cold-start durations.", nil)
	s.mu.Lock()
	s.obsReg = reg
	eps := make([]*Endpoint, 0, len(s.endpoints))
	for _, ep := range s.endpoints {
		eps = append(eps, ep)
	}
	s.mu.Unlock()
	for _, ep := range eps {
		s.instrumentEndpoint(reg, ep)
	}
}

// instrumentEndpoint registers the endpoint's queue-depth gauge and hands
// its container manager the cold-start histogram (covers endpoints
// registered before Instrument was called).
func (s *Service) instrumentEndpoint(reg *obs.Registry, ep *Endpoint) {
	reg.GaugeFunc("xtract_faas_queue_depth", "Tasks waiting on the endpoint's local queue.",
		map[string]string{"endpoint": ep.ID},
		func() float64 { return float64(ep.QueueDepth()) })
	if cm := ep.containers; cm != nil {
		cm.obsColdStart = s.obsColdStart
	}
}

// RegisterContainer records a container image and its cold-start cost,
// returning its ID.
func (s *Service) RegisterContainer(name string, coldStart time.Duration) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	id := fmt.Sprintf("cont-%d-%s", s.seq, name)
	s.containers[id] = coldStart
	return id
}

// RegisterFunction registers handler under a new function ID. containerID
// names the runtime environment the function must execute in ("" for
// bare execution).
func (s *Service) RegisterFunction(name string, h Handler, containerID string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if containerID != "" {
		if _, ok := s.containers[containerID]; !ok {
			return "", fmt.Errorf("%w: %s", ErrUnknownContainer, containerID)
		}
	}
	s.seq++
	id := fmt.Sprintf("func-%d-%s", s.seq, name)
	s.functions[id] = &function{id: id, name: name, handler: h, container: containerID}
	return id, nil
}

// RegisterEndpoint attaches an endpoint to the service.
func (s *Service) RegisterEndpoint(ep *Endpoint) {
	s.mu.Lock()
	s.endpoints[ep.ID] = ep
	s.lastHeartbeat[ep.ID] = s.clk.Now()
	reg := s.obsReg
	s.mu.Unlock()
	ep.attach(s)
	if reg != nil {
		s.instrumentEndpoint(reg, ep)
	}
}

// ColdStart returns the registered cold-start cost of a container.
func (s *Service) ColdStart(containerID string) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.containers[containerID]
}

// SubmitBatch submits a batch of task requests (the "funcX batch") and
// returns one task ID per request, in order.
//
// The batch is charged by schedule. due is the time the cost model says
// the call has reached: its start plus the auth, batch and per-task
// submit costs, then one DispatchPerTask for each task in request order.
// The call sleeps only while due is ahead of the clock, so a late timer
// is absorbed by the tasks behind it instead of costing a tick per task;
// a task reaches its endpoint when the clock reaches its due time, never
// before, and the call returns at the last one.
func (s *Service) SubmitBatch(reqs []TaskRequest) ([]string, error) {
	now := s.clk.Now()
	due := now.Add(s.costs.AuthPerRequest + s.costs.SubmitPerBatch +
		time.Duration(len(reqs))*s.costs.SubmitPerTask)
	ids := make([]string, len(reqs))
	tasks := make([]*task, len(reqs))
	fns := make([]*function, len(reqs))
	eps := make([]*Endpoint, len(reqs))

	s.mu.Lock()
	// The whole batch is checked before any record exists, so a rejected
	// batch strands nothing in s.tasks.
	for _, req := range reqs {
		if _, ok := s.functions[req.FunctionID]; !ok {
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: %s", ErrUnknownFunction, req.FunctionID)
		}
		if _, ok := s.endpoints[req.EndpointID]; !ok {
			s.mu.Unlock()
			return nil, fmt.Errorf("%w: %s", ErrUnknownEndpoint, req.EndpointID)
		}
	}
	for i, req := range reqs {
		s.seq++
		id := fmt.Sprintf("task-%d", s.seq)
		t := &task{
			info: TaskInfo{
				ID:         id,
				FunctionID: req.FunctionID,
				EndpointID: req.EndpointID,
				Status:     TaskPending,
				Submitted:  due,
			},
			payload: req.Payload,
		}
		s.tasks[id] = t
		ids[i], tasks[i] = id, t
		fns[i], eps[i] = s.functions[req.FunctionID], s.endpoints[req.EndpointID]
	}
	s.mu.Unlock()

	s.TasksSubmitted.Add(int64(len(reqs)))
	faults := s.faultHook()
	for i, t := range tasks {
		due = due.Add(s.costs.DispatchPerTask)
		if due.After(now) {
			clock.SleepUntil(s.clk, due)
			now = s.clk.Now()
		}
		var err error
		if faults != nil {
			err = faults.DispatchFault(eps[i].ID)
		}
		if err == nil {
			err = eps[i].enqueue(t, fns[i])
		}
		if err != nil {
			s.lose(t, err)
		}
	}
	return ids, nil
}

// lose marks a non-terminal task lost with err and counts it; a task that
// is already terminal keeps its state and is not counted again.
func (s *Service) lose(t *task, err error) {
	t.mu.Lock()
	if t.info.Status.Terminal() {
		t.mu.Unlock()
		return
	}
	t.info.Err = err.Error()
	t.info.Status = TaskLost
	s.TasksLost.Add(1)
	t.publishUnlock()
}

// Forget drops a task's record once its owner has consumed the terminal
// TaskInfo or abandoned the task, releasing the payload and result the
// record pins. The ID is unknown to every later call; an execution still
// in progress finishes against the orphaned record and is discarded.
func (s *Service) Forget(id string) {
	s.mu.Lock()
	delete(s.tasks, id)
	s.mu.Unlock()
}

// TaskRecords reports how many task records the service holds.
func (s *Service) TaskRecords() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.tasks)
}

// heartbeat records endpoint liveness.
func (s *Service) heartbeat(epID string) {
	s.mu.Lock()
	s.lastHeartbeat[epID] = s.clk.Now()
	s.mu.Unlock()
}

// endpointLost marks every non-terminal task on the endpoint as lost.
// Called when an endpoint stops (allocation end) or its heartbeat expires.
func (s *Service) endpointLost(epID string) {
	s.mu.Lock()
	var lost []*task
	for _, t := range s.tasks {
		t.mu.Lock()
		nonTerminal := !t.info.Status.Terminal() && t.info.EndpointID == epID
		t.mu.Unlock()
		if nonTerminal {
			lost = append(lost, t)
		}
	}
	s.mu.Unlock()
	for _, t := range lost {
		s.lose(t, ErrEndpointStopped)
	}
}

// CheckHeartbeats scans endpoint liveness and marks tasks lost for any
// endpoint that has missed its heartbeat window. Returns the IDs of newly
// dead endpoints. Every running endpoint calls it after each of its own
// heartbeat ticks, so a silent endpoint is found by any live one, itself
// included; nothing outside the fabric needs to.
func (s *Service) CheckHeartbeats() []string {
	s.mu.Lock()
	now := s.clk.Now()
	var dead []string
	for id, last := range s.lastHeartbeat {
		if now.Sub(last) > s.HeartbeatTimeout {
			dead = append(dead, id)
			delete(s.lastHeartbeat, id)
		}
	}
	s.mu.Unlock()
	for _, id := range dead {
		s.endpointLost(id)
	}
	return dead
}

// taskFinished records completion bookkeeping and result-return latency.
// It is a no-op for tasks already marked lost.
func (s *Service) taskFinished(t *task, result []byte, err error) {
	s.clk.Sleep(s.costs.ResultPerTask)
	t.mu.Lock()
	if t.info.Status.Terminal() {
		t.mu.Unlock()
		return
	}
	t.info.Finished = s.clk.Now()
	latency := t.info.Finished.Sub(t.info.Submitted)
	if err != nil {
		t.info.Err = err.Error()
		t.info.Status = TaskFailed
		s.TasksFailed.Add(1)
	} else {
		t.info.Result = result
		t.info.Status = TaskSuccess
		s.TasksCompleted.Add(1)
	}
	t.publishUnlock() // after the count: a sink that receives the end sees it counted
	s.obsTaskLatency.ObserveDuration(latency)
}

// CancelTask force-fails a non-terminal task with ErrTaskCancelled,
// reporting whether it made the transition. This is the loser-kill half
// of hedged speculative execution: a duplicate still queued never runs
// (workers skip terminal tasks), and one already executing has its
// result discarded by the terminal-status fence in taskFinished. The
// cancellation is delivered to completion sinks like any other terminal
// state, so the dispatcher's outstanding-task accounting drains
// normally.
func (s *Service) CancelTask(id string) bool {
	s.mu.Lock()
	t, ok := s.tasks[id]
	s.mu.Unlock()
	if !ok {
		return false
	}
	t.mu.Lock()
	if t.info.Status.Terminal() {
		t.mu.Unlock()
		return false
	}
	t.info.Err = ErrTaskCancelled.Error()
	t.info.Finished = s.clk.Now()
	t.info.Status = TaskFailed
	t.publishUnlock()
	return true
}

// Notify subscribes sink to the terminal events of the given tasks: each
// task's final TaskInfo is pushed to the sink exactly once, when it turns
// terminal. Tasks that are already terminal at subscription time are
// delivered immediately, so there is no subscribe/complete race — callers
// may Notify after SubmitBatch returns without missing completions.
// Unknown IDs are ignored. Notify models the fabric's internal event bus
// and charges no control-plane cost; it is the one way an end is
// reported.
func (s *Service) Notify(ids []string, sink *CompletionSink) {
	for _, id := range ids {
		s.mu.Lock()
		t, ok := s.tasks[id]
		s.mu.Unlock()
		if !ok {
			continue
		}
		t.mu.Lock()
		if t.info.Status.Terminal() {
			info := t.info
			t.mu.Unlock()
			sink.push(info)
			continue
		}
		t.subs = append(t.subs, sink)
		t.mu.Unlock()
	}
}

package faas

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"xtract/internal/clock"
	"xtract/internal/obs"
)

// ContainerManager tracks warm container instances on an endpoint. The
// first task needing a container pays its cold-start cost; instances are
// returned to the warm pool on release, reproducing the ~70 s cold starts
// the paper reports for the Google Drive case study and their subsequent
// amortization.
type ContainerManager struct {
	clk       clock.Clock
	coldStart func(containerID string) time.Duration

	mu   sync.Mutex
	warm map[string]int

	// ColdStarts and WarmHits count acquisitions: an endpoint's manager
	// counts into its service's totals, a standalone one into its own.
	ColdStarts, WarmHits *atomic.Int64

	// obsColdStart is the owning service's histogram (nil-safe).
	obsColdStart *obs.Histogram
}

// NewContainerManager returns a manager that asks coldStart for each
// container's startup cost.
func NewContainerManager(clk clock.Clock, coldStart func(string) time.Duration) *ContainerManager {
	return &ContainerManager{clk: clk, coldStart: coldStart, warm: make(map[string]int),
		ColdStarts: new(atomic.Int64), WarmHits: new(atomic.Int64)}
}

// Acquire obtains a container instance, paying the cold-start cost when
// no warm instance is available. An empty containerID is free.
func (cm *ContainerManager) Acquire(containerID string) {
	if containerID == "" {
		return
	}
	cm.mu.Lock()
	if cm.warm[containerID] > 0 {
		cm.warm[containerID]--
		cm.mu.Unlock()
		cm.WarmHits.Add(1)
		return
	}
	cm.mu.Unlock()
	cm.ColdStarts.Add(1)
	cost := cm.coldStart(containerID)
	cm.obsColdStart.ObserveDuration(cost)
	cm.clk.Sleep(cost)
}

// Release returns an instance to the warm pool.
func (cm *ContainerManager) Release(containerID string) {
	if containerID == "" {
		return
	}
	cm.mu.Lock()
	cm.warm[containerID]++
	cm.mu.Unlock()
}

// WarmCount reports warm instances of a container.
func (cm *ContainerManager) WarmCount(containerID string) int {
	cm.mu.Lock()
	defer cm.mu.Unlock()
	return cm.warm[containerID]
}

type dispatchItem struct {
	t  *task
	fn *function
}

// Endpoint is a compute site: a pool of workers pulling tasks from a
// local queue, each executing functions inside (simulated) containers.
// It corresponds to a funcX endpoint deployed on a cluster login node.
type Endpoint struct {
	ID      string
	Workers int

	clk        clock.Clock
	svc        *Service
	containers *ContainerManager

	// ExecOverheadPerTask models per-invocation worker overhead
	// (deserialization, namespace setup), slept by the worker before each
	// task's handler runs.
	ExecOverheadPerTask time.Duration

	mu      sync.Mutex
	queue   chan *dispatchItem
	stopped bool
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	TasksExecuted atomic.Int64
}

// NewEndpoint creates an endpoint with the given worker count. It must be
// registered with a Service and then started.
func NewEndpoint(id string, workers int, clk clock.Clock) *Endpoint {
	if workers < 1 {
		workers = 1
	}
	return &Endpoint{
		ID:      id,
		Workers: workers,
		clk:     clk,
		queue:   make(chan *dispatchItem, 1<<16),
	}
}

// attach is called by Service.RegisterEndpoint.
func (e *Endpoint) attach(svc *Service) {
	e.svc = svc
	e.containers = NewContainerManager(e.clk, svc.ColdStart)
	e.containers.ColdStarts, e.containers.WarmHits = &svc.ColdStarts, &svc.WarmHits
	e.containers.obsColdStart = svc.obsColdStart
}

// Containers exposes the endpoint's container manager (for stats).
func (e *Endpoint) Containers() *ContainerManager { return e.containers }

// Start launches the worker pool and heartbeat loop. The endpoint runs
// until Stop is called or ctx is cancelled.
func (e *Endpoint) Start(ctx context.Context) error {
	if e.svc == nil {
		return fmt.Errorf("faas: endpoint %s not registered with a service", e.ID)
	}
	ctx, cancel := context.WithCancel(ctx)
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		cancel()
		return ErrEndpointStopped
	}
	e.cancel = cancel
	e.mu.Unlock()

	for i := 0; i < e.Workers; i++ {
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			e.worker(ctx)
		}()
	}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		e.heartbeatLoop(ctx)
	}()
	return nil
}

// Stop simulates the endpoint's allocation ending: workers stop, queued
// and running tasks are reported lost to the service.
func (e *Endpoint) Stop() {
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return
	}
	e.stopped = true
	cancel := e.cancel
	e.mu.Unlock()
	// Mark LOST before cancelling the workers: a ctx-aware handler returns
	// as soon as its context ends, and its result must find the task
	// already terminal rather than race endpointLost to the status.
	e.svc.endpointLost(e.ID)
	if cancel != nil {
		cancel()
	}
}

// Stopped reports whether the endpoint has been stopped.
func (e *Endpoint) Stopped() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stopped
}

// enqueue delivers a task to the endpoint's local queue. Called by the
// service when the task's dispatch is due.
func (e *Endpoint) enqueue(t *task, fn *function) error {
	e.mu.Lock()
	stopped := e.stopped
	e.mu.Unlock()
	if stopped {
		return ErrEndpointStopped
	}
	select {
	case e.queue <- &dispatchItem{t: t, fn: fn}:
		return nil
	default:
		return fmt.Errorf("faas: endpoint %s queue full", e.ID)
	}
}

func (e *Endpoint) worker(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			return
		case item := <-e.queue:
			e.execute(ctx, item)
		}
	}
}

func (e *Endpoint) execute(ctx context.Context, item *dispatchItem) {
	t, fn := item.t, item.fn
	// The handler's context also ends when the task turns terminal under
	// it -- lost with its endpoint's heartbeat, cancelled as a hedge
	// loser -- so a batch whose retry may already have finished the job
	// stops between steps instead of extracting on. The terminal
	// transition cancels it; no goroutine waits for that.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	t.mu.Lock()
	if t.info.Status.Terminal() {
		t.mu.Unlock()
		return
	}
	t.info.Status = TaskRunning
	t.info.Started = e.clk.Now()
	t.stop = cancel
	payload := t.payload
	t.mu.Unlock()

	if h := e.svc.faultHook(); h != nil {
		if d := h.SlowFault(e.ID); d > 0 {
			// Injected straggler latency. The sleep aborts when the task
			// turns terminal underneath it (cancelled hedge loser, lost
			// allocation), which ends ctx, so a killed duplicate frees its
			// worker at once instead of sleeping out the full straggle.
			select {
			case <-ctx.Done():
			case <-e.clk.After(d):
			}
			t.mu.Lock()
			terminal := t.info.Status.Terminal()
			t.mu.Unlock()
			if terminal {
				return
			}
		}
	}

	e.containers.Acquire(fn.container)
	e.clk.Sleep(e.ExecOverheadPerTask)
	result, err := e.runHandler(ctx, fn, payload)
	e.containers.Release(fn.container)

	// If the allocation died mid-execution the task is already LOST;
	// taskFinished will be a no-op for it.
	e.TasksExecuted.Add(1)
	e.svc.taskFinished(t, result, err)
}

// runHandler invokes the function handler, converting a panic into a
// TaskFailed-style error so one poisoned payload cannot take down the
// worker (let alone the process).
func (e *Endpoint) runHandler(ctx context.Context, fn *function, payload any) (result any, err error) {
	defer func() {
		if r := recover(); r != nil {
			result = nil
			err = fmt.Errorf("faas: handler panic on endpoint %s: %v", e.ID, r)
			e.svc.HandlerPanics.Add(1)
			slog.Error("faas: handler panic", slog.String("endpoint", e.ID), slog.Any("panic", r))
		}
	}()
	return fn.handler(ctx, payload)
}

// heartbeatLoop beats, then checks every endpoint's heartbeat, once a
// tick: any live endpoint finds a silent one dead and its tasks lost.
func (e *Endpoint) heartbeatLoop(ctx context.Context) {
	interval := e.svc.HeartbeatTimeout / 3
	if interval <= 0 {
		interval = time.Second
	}
	for {
		drop := false
		if h := e.svc.faultHook(); h != nil {
			if h.EndpointCrash(e.ID) {
				e.Stop()
				return
			}
			drop = h.HeartbeatDrop(e.ID)
		}
		if !drop {
			e.svc.heartbeat(e.ID)
		}
		e.svc.CheckHeartbeats()
		select {
		case <-ctx.Done():
			return
		case <-e.clk.After(interval):
		}
	}
}

// QueueDepth reports tasks waiting on the endpoint.
func (e *Endpoint) QueueDepth() int { return len(e.queue) }

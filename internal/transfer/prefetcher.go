package transfer

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"xtract/internal/clock"
)

// PrefetchTask asks the prefetcher to stage a family's files from one
// endpoint onto another before extraction. The Xtract service hands these
// over when a family's files are not local to their planned compute site.
type PrefetchTask struct {
	FamilyID string
	Src      string
	Dst      string
	Pairs    []FilePair
}

// PrefetchResult reports a completed (or failed) staging operation back to
// whoever handed its task over, under the task's family ID.
type PrefetchResult struct {
	FamilyID string
	OK       bool
	Err      string
	Bytes    int64
	Elapsed  time.Duration
}

// staged is one task handed over, with the hook its asker hears it on.
type staged struct {
	PrefetchTask
	report func(PrefetchResult)
}

// Prefetcher is the microservice that takes staging tasks, folds the
// same-route tasks of each window into one fabric job, keeps a bounded
// number of those jobs in flight, and reports each task to its asker as
// soon as its own files have landed.
type Prefetcher struct {
	fabric *Fabric
	clk    clock.Clock

	// BatchWindow bounds how many waiting tasks are folded into one
	// fabric job per route (amortizing per-job RTT).
	BatchWindow int

	// intake holds the tasks no window has taken yet, oldest first; ready
	// holds at most one token, sent after every append.
	mu      sync.Mutex
	intake  []staged
	ready   chan struct{}
	pending atomic.Int64 // handed over, not yet reported or dropped

	TasksDone   atomic.Int64
	TasksFailed atomic.Int64
	BytesMoved  atomic.Int64 // bytes of the tasks reported staged
}

// NewPrefetcher wires a prefetcher to its fabric.
func NewPrefetcher(fabric *Fabric, clk clock.Clock) *Prefetcher {
	return &Prefetcher{
		fabric:      fabric,
		clk:         clk,
		BatchWindow: 32,
		ready:       make(chan struct{}, 1),
	}
}

// Stage hands t over. report is called once, from a prefetcher goroutine,
// when t's files have landed or its fabric job has failed, and must not
// block; it is never called if Run stops first. Stage never blocks.
func (p *Prefetcher) Stage(t PrefetchTask, report func(PrefetchResult)) {
	p.pending.Add(1)
	p.mu.Lock()
	p.intake = append(p.intake, staged{t, report})
	p.mu.Unlock()
	select {
	case p.ready <- struct{}{}:
	default:
	}
}

// Pending returns how many tasks have been handed over and neither
// reported nor dropped.
func (p *Prefetcher) Pending() int64 { return p.pending.Load() }

// take removes up to n waiting tasks, oldest first.
func (p *Prefetcher) take(n int) []staged {
	p.mu.Lock()
	defer p.mu.Unlock()
	n = min(n, len(p.intake))
	out := p.intake[:n:n]
	if p.intake = p.intake[n:]; len(p.intake) == 0 {
		p.intake = nil
	}
	return out
}

// window is the part of one taken batch that shares a route: it becomes
// one fabric job.
type window struct {
	src, dst string
	tasks    []staged
}

// Run stages what is handed over until ctx is cancelled, keeping at most
// inFlight fabric jobs active, and returns once every waiter has exited.
// The intake loop takes a slot before it takes tasks, so a window never
// holds tasks while waiting for capacity; the window's waiter runs one
// fabric job per route, one after the other.
func (p *Prefetcher) Run(ctx context.Context, inFlight int) {
	if inFlight < 1 {
		inFlight = 1
	}
	slots := make(chan struct{}, inFlight) // semaphore: one token per waiter
	var waiters sync.WaitGroup
	defer waiters.Wait()
	for {
		select {
		case <-ctx.Done():
			return
		case slots <- struct{}{}:
		}
		batch := p.take(p.BatchWindow)
		if len(batch) == 0 {
			<-slots
			select {
			case <-ctx.Done():
				return
			case <-p.ready:
			}
			continue
		}
		waiters.Add(1)
		go func() {
			defer waiters.Done()
			for _, w := range split(batch) {
				p.stage(ctx, w)
			}
			<-slots
		}()
	}
}

// split groups a taken batch by route, in arrival order.
func split(batch []staged) []*window {
	var windows []*window
next:
	for _, t := range batch {
		for _, w := range windows {
			if w.src == t.Src && w.dst == t.Dst {
				w.tasks = append(w.tasks, t)
				continue next
			}
		}
		windows = append(windows, &window{src: t.Src, dst: t.Dst, tasks: []staged{t}})
	}
	return windows
}

// stage runs one window as one fabric job and follows it in order: a
// task is reported when its own last file is down, with its own bytes and
// elapsed, and every task behind it that is down by then is reported
// with it. If the job ends short the tasks already landed stay staged
// and the rest fail with its error; on shutdown the unreported tasks are
// dropped.
func (p *Prefetcher) stage(ctx context.Context, w *window) {
	var pairs []FilePair
	for _, t := range w.tasks {
		pairs = append(pairs, t.Pairs...)
	}
	start := p.clk.Now()
	jobID, err := p.fabric.Submit(w.src, w.dst, pairs)
	res := PrefetchResult{OK: err == nil}
	var info JobInfo
	end, moved := 0, int64(0) // files through task i, bytes through task i-1
	for i, t := range w.tasks {
		if res.OK {
			end += len(t.Pairs)
			info, err = p.fabric.WaitFiles(ctx, jobID, end)
			res.OK = err == nil && info.FilesDone >= end
		}
		if err != nil && ctx.Err() != nil {
			_, _ = p.fabric.WaitContext(ctx, jobID)
			p.pending.Add(-int64(len(w.tasks) - i))
			return
		}
		res.FamilyID, res.Elapsed = t.FamilyID, p.clk.Since(start)
		if res.OK {
			res.Bytes, moved = info.BytesTransferred-moved, info.BytesTransferred
			p.TasksDone.Add(1)
			p.BytesMoved.Add(res.Bytes)
		} else {
			res.Bytes, res.Err = 0, info.Err
			if err != nil {
				res.Err = err.Error()
			}
			p.TasksFailed.Add(1)
		}
		if i+1 == len(w.tasks) {
			_, _ = p.fabric.WaitContext(ctx, jobID) // the job's record goes before its last report does
		}
		p.pending.Add(-1)
		t.report(res)
	}
}

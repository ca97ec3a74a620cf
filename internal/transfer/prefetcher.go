package transfer

import (
	"context"
	"sync"
	"time"

	"xtract/internal/clock"
	"xtract/internal/metrics"
	"xtract/internal/queue"
)

// PrefetchTask asks the prefetcher to stage a family's files from one
// endpoint onto another before extraction. The Xtract service enqueues
// these when a family's files are not local to their planned compute site.
type PrefetchTask struct {
	FamilyID string     `json:"family_id"`
	Src      string     `json:"src"`
	Dst      string     `json:"dst"`
	Pairs    []FilePair `json:"pairs"`
}

// PrefetchResult reports a completed (or failed) staging operation back to
// the Xtract service's ready queue.
type PrefetchResult struct {
	FamilyID string        `json:"family_id"`
	Src      string        `json:"src"`
	Dst      string        `json:"dst"`
	OK       bool          `json:"ok"`
	Err      string        `json:"err,omitempty"`
	Bytes    int64         `json:"bytes"`
	Elapsed  time.Duration `json:"elapsed"`
}

// Prefetcher is the microservice that drains a queue of staging tasks,
// folds the same-route tasks of each received window into one fabric job,
// keeps a bounded number of those jobs in flight, and reports each
// finished job's results on the done queue in one batch.
type Prefetcher struct {
	fabric *Fabric
	in     *queue.Queue
	out    *queue.Queue
	clk    clock.Clock

	// BatchWindow bounds how many queued tasks are folded into one
	// fabric job per route (amortizing per-job RTT).
	BatchWindow int
	// Visibility is the queue visibility timeout while a task is staged.
	Visibility time.Duration

	TasksDone   metrics.Counter
	TasksFailed metrics.Counter
	BytesMoved  metrics.Counter
}

// NewPrefetcher wires a prefetcher to its fabric and queues.
func NewPrefetcher(fabric *Fabric, in, out *queue.Queue, clk clock.Clock) *Prefetcher {
	return &Prefetcher{
		fabric:      fabric,
		in:          in,
		out:         out,
		clk:         clk,
		BatchWindow: 32,
		Visibility:  5 * time.Minute,
	}
}

// window is the part of one received batch that shares a route: it
// becomes one fabric job and one batch of results.
type window struct {
	src, dst string
	tasks    []PrefetchTask
	receipts []string
}

// Run drains the input queue until ctx is cancelled, keeping at most
// inFlight fabric jobs active, and returns once every waiter has exited.
// The intake loop takes a slot before it receives, so a batch is never
// held invisible while waiting for capacity; the batch's waiter runs one
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
		msgs := p.in.Receive(p.BatchWindow, p.Visibility)
		if len(msgs) == 0 {
			<-slots
			// Every way a message becomes visible (send, Nack, visibility
			// expiry, a fault-suppressed Receive) signals Ready.
			select {
			case <-ctx.Done():
				return
			case <-p.in.Ready():
			}
			continue
		}
		waiters.Add(1)
		go func() {
			defer waiters.Done()
			for _, w := range p.split(msgs) {
				p.stage(ctx, w)
			}
			<-slots
		}()
	}
}

// split decodes a received batch and groups it by route, in arrival
// order. Poison messages are dropped.
func (p *Prefetcher) split(msgs []queue.Message) []*window {
	var windows []*window
next:
	for _, m := range msgs {
		var t PrefetchTask
		if err := DecodePrefetchTask(m.Body, &t); err != nil {
			_ = p.in.Delete(m.Receipt)
			continue
		}
		for _, w := range windows {
			if w.src == t.Src && w.dst == t.Dst {
				w.tasks = append(w.tasks, t)
				w.receipts = append(w.receipts, m.Receipt)
				continue next
			}
		}
		windows = append(windows, &window{
			src: t.Src, dst: t.Dst,
			tasks:    []PrefetchTask{t},
			receipts: []string{m.Receipt},
		})
	}
	return windows
}

// stage runs one window as one fabric job and blocks on its completion
// event. Results go out in one batch before the receipts are deleted in
// one batch: a crash between the two redelivers the tasks (at-least-once)
// and never loses a result.
func (p *Prefetcher) stage(ctx context.Context, w *window) {
	var pairs []FilePair
	for _, t := range w.tasks {
		pairs = append(pairs, t.Pairs...)
	}
	start := p.clk.Now()
	var info JobInfo
	jobID, err := p.fabric.Submit(w.src, w.dst, pairs)
	if err == nil {
		info, err = p.fabric.WaitContext(ctx, jobID)
	}
	if ctx.Err() != nil {
		// Shutdown mid-fetch: hand the tasks back to the queue instead of
		// reporting results, so a restarted prefetcher can redo them.
		for _, r := range w.receipts {
			_ = p.in.Nack(r)
		}
		return
	}
	res := PrefetchResult{
		Src:     w.src,
		Dst:     w.dst,
		OK:      err == nil && info.Status == StatusSucceeded,
		Elapsed: p.clk.Since(start),
	}
	if err != nil {
		res.Err = err.Error()
	} else {
		res.Err = info.Err
		res.Bytes = info.BytesTransferred / int64(len(w.tasks))
		p.BytesMoved.Add(info.BytesTransferred)
	}
	bodies := make([][]byte, len(w.tasks))
	for i, t := range w.tasks {
		res.FamilyID = t.FamilyID
		bodies[i] = AppendPrefetchResult(nil, &res)
	}
	if res.OK {
		p.TasksDone.Add(int64(len(w.tasks)))
	} else {
		p.TasksFailed.Add(int64(len(w.tasks)))
	}
	p.out.SendBatch(bodies)
	p.in.DeleteBatch(w.receipts)
}

package transfer

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"xtract/internal/clock"
	"xtract/internal/queue"
)

// PrefetchTask asks the prefetcher to stage a family's files from one
// endpoint onto another before extraction. The Xtract service enqueues
// these when a family's files are not local to their planned compute site.
// JobID names the job the family belongs to — family IDs repeat across jobs
// over one repository — and comes back on the result.
type PrefetchTask struct {
	JobID    string     `json:"job_id"`
	FamilyID string     `json:"family_id"`
	Src      string     `json:"src"`
	Dst      string     `json:"dst"`
	Pairs    []FilePair `json:"pairs"`
}

// PrefetchResult reports a completed (or failed) staging operation back to
// the Xtract service's ready queue, under its task's job and family IDs.
type PrefetchResult struct {
	JobID    string        `json:"job_id"`
	FamilyID string        `json:"family_id"`
	OK       bool          `json:"ok"`
	Err      string        `json:"err,omitempty"`
	Bytes    int64         `json:"bytes"`
	Elapsed  time.Duration `json:"elapsed"`
}

// Prefetcher is the microservice that drains a queue of staging tasks,
// folds the same-route tasks of each received window into one fabric job,
// keeps a bounded number of those jobs in flight, and reports each task
// on the done queue as soon as its own files have landed.
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

	TasksDone   atomic.Int64
	TasksFailed atomic.Int64
	BytesMoved  atomic.Int64 // bytes of the tasks reported staged
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

// stage runs one window as one fabric job and follows it in order: a
// task is reported when its own last file is down, with its own bytes and
// elapsed, along with every task behind it that is down by then. A report
// is one batch of results, then one batch delete of those receipts: a
// crash between the two redelivers tasks (at-least-once) and never loses
// a result. If the job ends short the tasks already landed stay staged
// and the rest fail with its error; on shutdown the unreported tasks go
// back to the queue, so a restarted prefetcher can redo them.
func (p *Prefetcher) stage(ctx context.Context, w *window) {
	var pairs []FilePair
	for _, t := range w.tasks {
		pairs = append(pairs, t.Pairs...)
	}
	start := p.clk.Now()
	jobID, err := p.fabric.Submit(w.src, w.dst, pairs)
	res := PrefetchResult{OK: err == nil}
	var info JobInfo
	var bodies [][]byte
	sent, end, moved := 0, 0, int64(0) // tasks reported, files through task i, bytes through task i-1
	for i, t := range w.tasks {
		if res.OK {
			end += len(t.Pairs)
			info, err = p.fabric.WaitFiles(ctx, jobID, end)
			res.OK = err == nil && info.FilesDone >= end
		}
		if err != nil && ctx.Err() != nil {
			_, _ = p.fabric.WaitContext(ctx, jobID)
			for _, r := range w.receipts[sent:] {
				_ = p.in.Nack(r)
			}
			return
		}
		res.JobID, res.FamilyID, res.Elapsed = t.JobID, t.FamilyID, p.clk.Since(start)
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
		bodies = append(bodies, AppendPrefetchResult(nil, &res))
		if i+1 < len(w.tasks) && (!res.OK || info.FilesDone >= end+len(w.tasks[i+1].Pairs)) {
			continue // the next task is down too, or fails with this one: one report
		}
		if i+1 == len(w.tasks) {
			_, _ = p.fabric.WaitContext(ctx, jobID) // the job's record goes before its last report does
		}
		p.out.SendBatch(bodies)
		p.in.DeleteBatch(w.receipts[sent : i+1])
		sent, bodies = i+1, bodies[:0]
	}
}

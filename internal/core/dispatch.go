package core

import (
	"context"
	"log/slog"
	"sync"
	"time"

	"xtract/internal/faas"
	"xtract/internal/obs"
	"xtract/internal/transfer"
)

// This file is the dispatch half of the event-driven pipeline: one
// dispatcher shard per endpoint site, fed ready steps by the pump over a
// channel, owning its own batching buckets and outstanding-task set, and
// reporting terminal tasks back through a shared event sink. The pump
// never calls the FaaS fabric directly anymore — shards submit and
// collect concurrently, so multi-site jobs overlap their control-plane
// round trips instead of serializing them through one loop.

// feedDepth bounds the pump→shard step channel. The pump blocks (with
// job-context cancellation) when a shard falls this far behind, which
// back-pressures intake instead of growing memory without bound.
const feedDepth = 1024

// dispatchItem is one dispatch-ready step routed from the pump to a site
// shard, stamped with the time it became ready so the shard can observe
// ready→submitted dispatch latency. ref is the pump's name for the step;
// it comes back on every event about the task that carries it.
type dispatchItem struct {
	extractor string
	readyAt   time.Time
	ref       stepRef
	sp        stepPayload
	// hedge marks a speculative duplicate of a step already running
	// elsewhere. Hedge steps never batch with originals (separate bucket
	// key) so a straggler's duplicate is not delayed behind fresh work.
	hedge bool
}

// bucketKey separates hedge duplicates from first-attempt steps in the
// shard's batching buckets.
type bucketKey struct {
	extractor string
	hedge     bool
}

// task is the one record of an Xtract batch, from the bucket it left to
// the commit of its last step: makeTask builds it and it travels by
// pointer — the shard's pending list, its outstanding set, every shard
// event about it, the pump's hedge deadlines and its steps' task lists.
// No lock guards it because no field has two writers and each is written
// before the record is published to its readers: refs, hedge and ready
// by makeTask; id and submitted by submit, before the first event
// about the task enters the sink (whose mutex orders them for the pump);
// ended by the pump alone, which is also its only reader.
type task struct {
	refs  []stepRef
	hedge bool      // a speculative duplicate, never itself hedged
	ready time.Time // earliest readyAt of its steps

	id        string    // the fabric's name for it
	submitted time.Time // when the fabric accepted it

	ended bool // the pump has resolved it; hedge deadlines and loser cancellation skip it
}

// shardEvent is one notification from a dispatcher shard back to the
// pump about one task: it ended on the fabric (info), the fabric accepted
// it (accepted, sent only when hedging is on: the pump arms the hedge
// deadline and notes the task on its steps, for loser cancellation), or
// it never got there (cause set), in which case its steps go through the
// pump's retry/dead-letter path. staged and validated are not a shard's
// events: they are the prefetcher's report on one of the job's families
// (set when isStaged) and the validator's on a batch of its records.
type shardEvent struct {
	isStaged  bool
	staged    transfer.PrefetchResult
	validated int
	task      *task
	info      faas.TaskInfo
	accepted  bool
	cause     string // "no_function" | "submit_error"; empty unless dispatch failed
	detail    string
}

// shardEventSink fans events from every shard, and the prefetcher's and
// the validator's reports, into the pump. The buffer is unbounded and the
// wakeup token coalesced (the channel holds at most one), so neither ever
// blocks on a slow pump and the pump never misses an event: it drains
// after each token and re-blocks. The sink is the prefetcher's and the
// validator's Reporter for its job.
type shardEventSink struct {
	mu    sync.Mutex
	evs   []shardEvent
	spare []shardEvent // what the last drain returned, the next buffer
	ready chan struct{}
}

// Ready returns the sink's coalesced wakeup channel.
func (k *shardEventSink) Ready() <-chan struct{} { return k.ready }

func (k *shardEventSink) push(ev shardEvent) {
	k.mu.Lock()
	k.evs = append(k.evs, ev)
	k.mu.Unlock()
	select {
	case k.ready <- struct{}{}:
	default:
	}
}

// drain returns and clears every pending event, in arrival order. The
// slice is the caller's until its next drain, which takes it back,
// cleared, as the buffer events are pushed into: two buffers serve the
// job's every pass.
func (k *shardEventSink) drain() []shardEvent {
	k.mu.Lock()
	out := k.evs
	clear(k.spare)
	k.evs, k.spare = k.spare[:0], out
	k.mu.Unlock()
	return out
}

// Staged is the prefetcher's report hook: a staging result joins the
// events of the job whose pump handed its task over.
func (k *shardEventSink) Staged(res transfer.PrefetchResult) {
	k.push(shardEvent{isStaged: true, staged: res})
}

// Validated is the validator's report hook: n of the job's records are
// written or rejected.
func (k *shardEventSink) Validated(n int) {
	k.push(shardEvent{validated: n})
}

func (k *shardEventSink) pending() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.evs)
}

// dispatcher is one per-site dispatch shard. All fields below feed are
// shard-local: only the shard goroutine touches them, so batching needs
// no locks and shards share nothing but the event sink.
type dispatcher struct {
	s     *Service
	jobID string
	// tenant owns the job; every step fed to this shard holds one of the
	// tenant's fair-share task slots, released here when the step reaches
	// a terminal event (or by the shutdown sweep).
	tenant string
	site   *Site
	feed   chan dispatchItem
	sink   *shardEventSink
	comp   *faas.CompletionSink

	buckets map[bucketKey][]dispatchItem
	// reqs is the funcX batch being accumulated and pending the task behind
	// each request; out holds the tasks the fabric has accepted, by ID.
	reqs    []faas.TaskRequest
	pending []*task
	out     map[string]*task
}

func newDispatcher(s *Service, jobID, tenant string, site *Site, sink *shardEventSink) *dispatcher {
	return &dispatcher{
		s:       s,
		jobID:   jobID,
		tenant:  tenant,
		site:    site,
		feed:    make(chan dispatchItem, feedDepth),
		sink:    sink,
		comp:    faas.NewCompletionSink(),
		buckets: make(map[bucketKey][]dispatchItem),
		out:     make(map[string]*task),
	}
}

// run is the shard loop: drain whatever the pump has fed, flush it to
// the fabric, and forward completion notifications, blocking between
// bursts. Nothing polls behind the notifications: every way a task turns
// terminal publishes under the task's lock and Notify checks the status
// under it (faas: TestEveryTerminalTransitionNotifiesOnce).
func (d *dispatcher) run(ctx context.Context) {
	for {
		select {
		case <-ctx.Done():
			d.releaseAbandoned()
			return
		case it := <-d.feed:
			d.intake(it)
		drained:
			for {
				select {
				case it := <-d.feed:
					d.intake(it)
				default:
					break drained
				}
			}
			// The feed went momentarily quiet: the pump's burst is in, so
			// partial batches won't fill soon — flush them now.
			d.flushAll()
		case <-d.comp.Ready():
			for _, info := range d.comp.Drain() {
				d.terminal(info.ID, info)
			}
		}
	}
}

// intake buckets one step; a full Xtract batch becomes a task at once and
// a full funcX batch is submitted at once, exactly as the paper's batching
// layers prescribe.
func (d *dispatcher) intake(it dispatchItem) {
	k := bucketKey{extractor: it.extractor, hedge: it.hedge}
	d.buckets[k] = append(d.buckets[k], it)
	if len(d.buckets[k]) >= d.s.cfg.XtractBatchSize {
		d.makeTask(k)
	}
}

// flushAll converts every partial bucket into a task and submits the
// accumulated batch.
func (d *dispatcher) flushAll() {
	for k, items := range d.buckets {
		if len(items) > 0 {
			d.makeTask(k)
		}
	}
	if len(d.reqs) > 0 {
		d.submit()
	}
}

// makeTask turns a bucket — never more than one Xtract batch, since intake
// empties a bucket the moment it is full — into a task and its pending
// FaaS request, and submits the funcX batch that request completes. The
// bucket keeps its array, cleared, for the extractor's next steps. The
// extractor's function at the site comes from the service's one function
// table (the paper's RDS tuple, the Figure 3 t_xs resolve); an
// unregistered pair goes back to the pump as a dispatch-failure event.
func (d *dispatcher) makeTask(k bucketKey) {
	extractor := k.extractor
	batch := d.buckets[k]

	t := &task{refs: make([]stepRef, 0, len(batch)), hedge: k.hedge, ready: batch[0].readyAt}
	steps := make([]stepPayload, 0, len(batch))
	for _, it := range batch {
		steps = append(steps, it.sp)
		t.refs = append(t.refs, it.ref)
		if it.readyAt.Before(t.ready) {
			t.ready = it.readyAt
		}
	}
	clear(batch)
	d.buckets[k] = batch[:0]

	fid, err := d.s.functionFor(extractor, d.site.Name)
	if err != nil {
		d.undispatched(t, "no_function", err)
		return
	}
	// The payload is the task's own value: the fabric keeps it as given
	// and nobody writes it once it is submitted.
	payload := &taskPayload{Extractor: extractor, Steps: steps}
	ep := ""
	if cep := d.site.ComputeEndpoint(); cep != nil {
		ep = cep.ID
	}
	d.reqs = append(d.reqs, faas.TaskRequest{FunctionID: fid, EndpointID: ep, Payload: payload})
	d.pending = append(d.pending, t)
	if len(d.reqs) >= d.s.cfg.FuncXBatchSize {
		d.submit()
	}
}

// undispatched reports a task that never reached the fabric: its steps'
// slots are returned and the pump decides what becomes of them.
func (d *dispatcher) undispatched(t *task, cause string, err error) {
	d.s.cfg.Tenants.ReleaseTasks(d.tenant, len(t.refs))
	d.sink.push(shardEvent{task: t, cause: cause, detail: err.Error()})
}

// submit sends the accumulated funcX batch and subscribes the shard's
// completion sink to the new tasks. Submission failure loses the whole
// batch: every step goes back to the pump for retry/dead-letter. The
// accumulation slices' backing arrays serve the next batch, cleared so
// they pin neither payloads nor records.
func (d *dispatcher) submit() {
	ids, err := d.s.cfg.FaaS.SubmitBatch(d.reqs)
	now := d.s.clk.Now()
	for i, t := range d.pending {
		if err != nil {
			d.undispatched(t, "submit_error", err)
			continue
		}
		t.id, t.submitted = ids[i], now
		d.out[t.id] = t
		d.s.obsDispatchLatency.ObserveDuration(now.Sub(t.ready))
		d.s.obs.Event(d.jobID, obs.EvBatchDispatched, slog.String("task", t.id),
			slog.Int("steps", len(t.refs)), slog.String("endpoint", d.reqs[i].EndpointID))
		if d.s.cfg.Hedge.Enabled {
			// Tell the pump the task is live so it can arm the hedge
			// deadline and note it on its steps for loser cancellation.
			d.sink.push(shardEvent{task: t, accepted: true})
		}
	}
	if err == nil {
		d.s.obsPipelineDepth.Add(float64(len(ids)))
		d.s.cfg.FaaS.Notify(ids, d.comp)
	}
	clear(d.reqs)
	clear(d.pending)
	d.reqs, d.pending = d.reqs[:0], d.pending[:0]
}

// terminal forwards one finished/lost task to the pump, once: the out-map
// check claims it. The claim is also the end of the task's record on the
// fabric: info is the only copy anyone reads from here on.
func (d *dispatcher) terminal(id string, info faas.TaskInfo) {
	t, ok := d.out[id]
	if !ok {
		return
	}
	delete(d.out, id)
	d.s.cfg.FaaS.Forget(id)
	d.s.obsPipelineDepth.Dec()
	d.s.cfg.Tenants.ReleaseTasks(d.tenant, len(t.refs))
	d.s.recordSiteOutcome(d.site.Name, info)
	d.sink.push(shardEvent{task: t, info: info})
}

// releaseAbandoned returns every fair-share task slot this shard still
// holds when its job context ends: steps buffered in buckets, tasks built
// but not yet submitted, and tasks outstanding on the fabric (cancelled,
// their records dropped, their pipeline depth given back); the pump's teardown returns
// what is left in the feed. Without this sweep a cancelled job would
// permanently shrink the global slot budget.
func (d *dispatcher) releaseAbandoned() {
	n := 0
	for _, items := range d.buckets {
		n += len(items)
	}
	for _, t := range d.pending {
		n += len(t.refs)
	}
	for id, t := range d.out {
		n += len(t.refs)
		// Nobody will read these results: a task still running is
		// cancelled, which ends its handler's context between steps.
		d.s.cfg.FaaS.CancelTask(id)
		d.s.cfg.FaaS.Forget(id)
	}
	d.s.obsPipelineDepth.Add(-float64(len(d.out)))
	d.s.cfg.Tenants.ReleaseTasks(d.tenant, n)
}

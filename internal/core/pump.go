package core

import (
	"context"
	"sync"
	"time"

	"xtract/internal/crawler"
	"xtract/internal/family"
	"xtract/internal/fastjson"
	"xtract/internal/journal"
	"xtract/internal/obs"
	"xtract/internal/transfer"
)

// This file is the pump's loop: what it waits on, and the intakes that
// turn each source's events into family and step transitions (place.go,
// step.go). Batching, submission and completion collection belong to the
// per-site dispatcher shards (dispatch.go).

// deadline is one "wake me at `at`" entry; retry backoffs and hedge
// deadlines share one list, one timer and one intake. A retry names the
// step that leaves backoff (idx < 0: the family's staging is sent again),
// a hedge deadline the task whose unfinished steps get a duplicate.
type deadline struct {
	at time.Time
	stepRef
	task *task
}

// pump is the orchestration state for one job. Only the pump goroutine
// touches it, which is what keeps retry, dead-letter and cache semantics
// free of locks.
type pump struct {
	s *Service
	// JobStats (with the job's ID) accumulates as the job runs and is what
	// it returns: concurrent jobs never report each other's work.
	JobStats
	// tenant owns the job: dispatch admission and cost accounting are
	// billed against it.
	tenant  string
	start   time.Time
	noCache bool
	// handoff is where this job's crawlers leave each directory's families
	// for the pump; each crawler reports its end on one of the channels.
	handoff       chan []family.Family
	crawlDone     chan crawler.Stats
	crawlErr      chan error
	crawlsPending int

	// fams holds every family the job has taken in; a family's phase is
	// its entry's phase field: absent → staging → running → finished, the
	// shared tombstone that keeps a family crawled twice out (see
	// takeFamilies). famCount counts entries by phase.
	fams     map[string]*famState
	famCount [famFinished + 1]int

	// jobCtx scopes crawl and shard goroutines to this job; events fans the
	// shards' notifications back in; shards holds one dispatcher per site,
	// created on first use.
	jobCtx  context.Context
	events  *shardEventSink
	shards  map[string]*dispatcher
	shardWG sync.WaitGroup

	// budget is the job's remaining retry budget.
	budget    int
	deadlines []deadline

	// pendingResults holds the validation records of the families that
	// finished this pass, encoded back to back in resultBuf, so one
	// ResultQueue.SendBatch per pass replaces a queue lock (and a wakeup
	// signal) per family. The send copies the bodies; both reset after it.
	pendingResults [][]byte
	resultBuf      []byte
	// submitted is the submission gate (nil: open). It closes once
	// job_submitted is durable or the journal has failed; until then no
	// result leaves the pump — job IDs are re-issued after a crash, so a
	// job the journal may never know leaves no document.
	submitted <-chan struct{}
}

// newPump returns the pump for one job; runJob adds jobCtx and crawls.
func newPump(s *Service, jobID, ten string, noCache bool, submitted <-chan struct{}) *pump {
	return &pump{
		s:         s,
		JobStats:  JobStats{JobID: jobID},
		tenant:    ten,
		start:     s.clk.Now(),
		noCache:   noCache,
		handoff:   make(chan []family.Family, handoffDirs),
		fams:      make(map[string]*famState),
		events:    newShardEventSink(),
		shards:    make(map[string]*dispatcher),
		budget:    s.retry.JobBudget,
		submitted: submitted,
	}
}

// loop runs the job to convergence. The pump is event-driven: each cycle
// drains every actionable source to empty, then blocks in await until a
// wakeup channel signals. The wakeup/idle split is the orchestration
// bench's headline number — an idle wakeup means a signal fired with
// nothing for this job to do.
func (p *pump) loop(ctx context.Context) error {
	woke := "start"
	for {
		progress := false
		for {
			pass := p.intakeFamilies()
			pass = p.intakeStaged() || pass
			pass = p.intakeDeadlines() || pass
			pass = p.handleEvents() || pass
			if !pass {
				break
			}
			// Families finished this pass go to the validator now, so it
			// works alongside a pump that rarely goes idle.
			p.flushResults()
			progress = true
		}
		// The job-start drain and crawl completions are work in themselves
		// even when no step became actionable, and await itself works off
		// the families and the held results it wakes for; anything else that
		// woke the pump for nothing is counted as idle overhead.
		if !progress && woke != "start" && woke != "crawl" && woke != "durable" && woke != "families" {
			p.PumpIdleWakeups++
			p.s.obsWakeups.with("idle").Inc()
		}
		// Termination: nothing crawling, no family staging or running (a
		// family leaves those phases only when every step has resolved, so
		// none also means no retry pending and no shard work outstanding),
		// no shard events in flight, and the hand-off empty. Results held
		// behind the submission gate keep the job open.
		if p.crawlsPending == 0 && p.famCount[famStaging]+p.famCount[famRunning] == 0 &&
			p.events.pending() == 0 && len(p.handoff) == 0 && len(p.pendingResults) == 0 {
			return nil
		}
		var err error
		if woke, err = p.await(ctx); err != nil {
			return err
		}
		p.PumpWakeups++
		p.s.obsWakeups.with(woke).Inc()
	}
}

// flushResults batch-sends the buffered validation records, unless the
// submission gate still holds them. Called once per pump pass and by
// teardown for the error-return paths.
func (p *pump) flushResults() {
	if len(p.pendingResults) == 0 {
		return
	}
	if p.submitted != nil {
		select {
		case <-p.submitted:
			p.submitted = nil // open for good: later passes skip the check
		default:
			return
		}
	}
	p.s.cfg.ResultQueue.SendBatch(p.pendingResults)
	p.pendingResults = p.pendingResults[:0]
	p.resultBuf = p.resultBuf[:0]
}

// nextDeadline returns the earliest pending deadline, first dropping
// hedge deadlines whose task has already ended so they wake nobody.
func (p *pump) nextDeadline() (deadline, bool) {
	var next deadline
	rest := p.deadlines[:0]
	for _, d := range p.deadlines {
		if d.task != nil && d.task.ended {
			continue
		}
		rest = append(rest, d)
		if len(rest) == 1 || d.at.Before(next.at) {
			next = d
		}
	}
	p.deadlines = rest
	return next, len(rest) > 0
}

// await blocks until some event source signals work for this job: a
// crawl finishing, the crawl hand-off, the shared prefetch-done queue
// (only while this job is staging), a shard event or a staged result
// another pump routed here, the earliest deadline coming due, or the
// submission gate opening. It returns a low-cardinality reason label for
// the wakeup counter.
func (p *pump) await(ctx context.Context) (string, error) {
	var deadlineCh <-chan time.Time
	due := "retry"
	if next, ok := p.nextDeadline(); ok {
		deadlineCh = p.s.clk.After(next.at.Sub(p.s.clk.Now())) // at once when overdue
		if next.task != nil {
			due = "hedge"
		}
	}
	// The shared prefetch-done queue only matters while this job has
	// families staging.
	var prefetchReady <-chan struct{}
	if p.famCount[famStaging] > 0 {
		prefetchReady = p.s.cfg.PrefetchDone.Ready()
	}
	var durable <-chan struct{}
	if len(p.pendingResults) > 0 {
		durable = p.submitted
	}
	select {
	case <-ctx.Done():
		return "", ctx.Err()
	case <-durable:
		p.flushResults()
		return "durable", nil
	case stats := <-p.crawlDone: // one send per crawler, here or on crawlErr
		p.Crawl.Add(stats)
		p.crawlsPending--
		return "crawl", nil
	case err := <-p.crawlErr:
		return "", err
	case fams := <-p.handoff:
		// Taken while blocked, so worked off here as a pass of its own: the
		// loop's next pass may find nothing else to flush these results.
		p.takeFamilies(fams)
		p.flushResults()
		return "families", nil
	case <-prefetchReady:
		return "staged", nil
	case <-p.events.Ready():
		return "events", nil
	case <-deadlineCh:
		return due, nil
	}
}

// handoffDirs bounds the crawl hand-off, in directories: a crawl worker
// with one more blocks until the pump has taken one, so a crawl runs no
// further ahead of extraction than this many directories' families on
// the heap. Wide enough that a pump working through one-family
// directories is not left waiting on a listing.
const handoffDirs = 32

// offerFamilies is the crawlers' sink: it parks one directory's families
// on the hand-off, waiting for room until the job ends.
func (p *pump) offerFamilies(ctx context.Context, fams []family.Family) int {
	select {
	case p.handoff <- fams:
		return len(fams)
	case <-ctx.Done():
		return 0
	}
}

// intakeFamilies takes what the crawlers have handed off, a bounded
// amount per pass so that results keep leaving the pump while a crawl
// runs ahead of it.
func (p *pump) intakeFamilies() bool {
	for taken := 0; taken < 64; {
		select {
		case fams := <-p.handoff:
			p.takeFamilies(fams)
			taken += len(fams)
		default:
			return taken > 0
		}
	}
	return true
}

// takeFamilies places one directory's families, and either readies them
// for dispatch or sends them to the prefetcher.
func (p *pump) takeFamilies(fams []family.Family) {
	for _, fam := range fams {
		if _, seen := p.fams[fam.ID]; seen {
			// Overlapping roots crawl a directory twice and name its
			// families the same both times. The family is already placed (or
			// finished): running it again would double every step's billing
			// and journal record.
			continue
		}
		p.s.obs.Emitf(p.JobID, obs.EvFamilyEnqueued, "family=%s groups=%d bytes=%d",
			fam.ID, len(fam.Groups), fam.TotalBytes())
		p.journal(journal.Record{
			Type: journal.RecFamilyEnqueued, FamilyID: fam.ID, Groups: len(fam.Groups),
		})
		p.placeFamily(fam)
	}
}

// intakeStaged reads the shared prefetch-done queue to empty, as its ready
// channel's contract asks of whoever takes the token. Every staging pump
// reads it and none competes: a result names its job; this job's are taken
// here, another live job's go onto its pump's event sink, and every
// message is deleted, never re-queued. A result nobody waits for — its job
// has ended, its family is no longer staging — is dropped and counted: a
// job that ends with families staging restages them if it is resumed.
func (p *pump) intakeStaged() bool {
	if p.famCount[famStaging] == 0 {
		return false
	}
	progress := false
	for {
		msgs := p.s.cfg.PrefetchDone.Receive(64, 5*time.Minute)
		if len(msgs) == 0 {
			return progress
		}
		progress = true
		acks := make([]string, 0, len(msgs))
		for _, m := range msgs {
			acks = append(acks, m.Receipt)
			var res transfer.PrefetchResult
			switch err := transfer.DecodePrefetchResult(m.Body, &res); {
			case err != nil: // poison: deleted
			case res.JobID == p.JobID:
				p.takeStaged(&res)
			default:
				if j := p.s.Job(res.JobID); j != nil {
					routed := res // res itself stays on the stack for a job's own results
					j.pump.events.push(shardEvent{staged: &routed})
				} else {
					p.s.jobs.strays.Add(1)
				}
			}
		}
		p.s.cfg.PrefetchDone.DeleteBatch(acks)
	}
}

// takeStaged readies the family a result is for, or retries its staging.
func (p *pump) takeStaged(res *transfer.PrefetchResult) {
	st, ok := p.fams[res.FamilyID]
	if !ok || st.phase != famStaging {
		p.s.jobs.strays.Add(1) // e.g. the answer to a task that was sent again
		return
	}
	if !res.OK {
		p.failStaging(st, "staging failed: "+res.Err)
		return
	}
	p.BytesStaged += res.Bytes
	p.s.cfg.Tenants.AddBytesStaged(p.tenant, res.Bytes)
	p.s.obsBytesStaged.Add(float64(res.Bytes))
	p.s.obs.Emitf(p.JobID, obs.EvFamilyStaged, "family=%s bytes=%d elapsed=%s",
		res.FamilyID, res.Bytes, res.Elapsed)
	p.setFamPhase(st, famRunning)
	p.advance(st)
}

// intakeDeadlines fires every deadline that has come due: a task still
// running past its hedge deadline has its unfinished steps duplicated, a
// family still staging has its prefetch task sent again, a step still in
// backoff is offered again. Nothing fired here arms a deadline in turn —
// failures come back as shard events — so the list is compacted in place.
func (p *pump) intakeDeadlines() bool {
	if len(p.deadlines) == 0 {
		return false
	}
	now := p.s.clk.Now()
	rest := p.deadlines[:0]
	progress := false
	for _, d := range p.deadlines {
		switch {
		case d.at.After(now):
			rest = append(rest, d)
		case d.task != nil:
			progress = p.fireHedge(d.task) || progress
		case d.idx < 0:
			progress = true
			if d.st.phase == famStaging {
				d.st.stageAttempts++
				p.s.cfg.PrefetchQueue.Send(d.st.prefetchBody)
				p.s.obs.Emitf(p.JobID, obs.EvFamilyStaging, "family=%s re-staged attempt=%d",
					d.st.fam.ID, d.st.stageAttempts)
			}
		default:
			progress = true
			if ss := &d.st.steps[d.idx]; ss.phase == stepBackoff {
				ss.phase = stepPending
				p.advance(d.st)
			}
		}
	}
	p.deadlines = rest
	return progress
}

// handleEvents drains the shard event sink: accepted tasks are noted,
// ended ones resolve against their steps, and staged results that another
// pump received are taken in.
func (p *pump) handleEvents() bool {
	evs := p.events.drain()
	if len(evs) == 0 {
		// Empty sink with a pending ready token means an earlier pass already
		// drained the events the token announced. Absorb the stale token so
		// it doesn't wake the pump for nothing, then re-check: a send racing
		// the absorb re-signals the channel, so no wakeup is ever lost.
		select {
		case <-p.events.Ready():
			evs = p.events.drain()
		default:
		}
		if len(evs) == 0 {
			return false
		}
	}
	for _, ev := range evs {
		switch {
		case ev.staged != nil:
			p.takeStaged(ev.staged)
		case ev.accepted:
			p.noteAccepted(ev.task)
		default:
			p.resolveTask(ev)
		}
	}
	return true
}

// shardFor returns (creating on first use) the dispatcher shard that
// owns the site's batching buckets and outstanding-task set.
func (p *pump) shardFor(site *Site) *dispatcher {
	if d, ok := p.shards[site.Name]; ok {
		return d
	}
	d := newDispatcher(p.s, p.JobID, p.tenant, site, p.events)
	p.shards[site.Name] = d
	p.shardWG.Add(1)
	go func() {
		defer p.shardWG.Done()
		d.run(p.jobCtx)
	}()
	return d
}

// journal appends one record for this job and nobody waits for it: step
// and family transitions leave with the journal's next waited batch.
// (Cancellation and terminal state go through Service.journalAppend.)
func (p *pump) journal(rec journal.Record) {
	rec.JobID = p.JobID
	p.s.journalWrite(rec, (*journal.Journal).AppendAsync)
}

// orNull is how a step's metadata is journaled and checkpointed: a step
// without any as null (json.Marshal(nil map) == null).
func orNull(md fastjson.Raw) fastjson.Raw {
	if len(md) == 0 {
		return fastjson.Raw("null")
	}
	return md
}

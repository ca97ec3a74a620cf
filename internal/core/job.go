package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xtract/internal/clock"
	"xtract/internal/crawler"
	"xtract/internal/journal"
	"xtract/internal/obs"
	"xtract/internal/queue"
	"xtract/internal/registry"
	"xtract/internal/store"
	"xtract/internal/tenant"
)

// JobStats summarizes a finished job. Every counter is scoped to this
// job alone — concurrent jobs on one service each report only their own
// work (the service-lifetime aggregates are the xtract_* counters).
type JobStats struct {
	JobID             string
	Crawl             crawler.Stats
	FamiliesDone      int64
	FamiliesFailed    int64
	StepsProcessed    int64
	StepsFailed       int64
	TasksResubmitted  int64
	StepsRetried      int64
	StepsDeadLettered int64
	BytesStaged       int64
	// CacheHits counts steps replayed from the extraction result cache
	// (no FaaS dispatch); CacheMisses counts lookups that fell through
	// to extraction.
	CacheHits   int64
	CacheMisses int64
	// PumpWakeups counts returns from the pump's event wait;
	// PumpIdleWakeups the subset that found nothing to do — pure
	// control-loop overhead. The ratios over StepsProcessed are what the
	// orchestration bench tracks.
	PumpWakeups     int64
	PumpIdleWakeups int64
	// FamiliesDegraded is the subset of FamiliesDone that shipped partial
	// results under the job's straggler budget: their dead-lettered steps
	// are marked in the validation record instead of failing the family.
	FamiliesDegraded int64
	// StepsHedged counts speculative duplicates dispatched for steps that
	// exceeded their extractor's latency estimate; HedgeWins the
	// duplicates that finished first; DuplicateSteps the redundant
	// completions the commit point discarded.
	StepsHedged    int64
	HedgeWins      int64
	DuplicateSteps int64
	// Degraded marks the job's terminal state DEGRADED: it converged with
	// partial results inside the straggler budget.
	Degraded bool
	Elapsed  time.Duration
}

// Job is the service's handle on one live job: its live-job table entry.
type Job struct {
	ID     string             // as the registry and the journal know it
	cancel context.CancelFunc // ends the job's context
	pump   *pump
	// done closes once the job has ended and left the table; stats and err
	// are what its run returned.
	done  chan struct{}
	stats JobStats
	err   error
}

// Wait blocks until the job has ended and returns its stats and error.
func (j *Job) Wait() (JobStats, error) {
	<-j.done
	return j.stats, j.err
}

// RunJob runs a job over the given repositories to its end: Submit, Wait.
func (s *Service) RunJob(ctx context.Context, repos []journal.RepoSpec) (JobStats, error) {
	j, err := s.Submit(ctx, journal.JobSpec{Repos: repos})
	if err != nil {
		return JobStats{}, err
	}
	return j.Wait()
}

// Grouper resolves a grouper name against the service's library. A job
// names its groupers and holds none, so the spec its job_submitted record
// carries is the job that ran; this is the one place a name becomes a
// grouping function. Submit, recovery and the API's check of a request
// all resolve through it.
func (s *Service) Grouper(name string) (crawler.GroupingFunc, error) {
	return crawler.GrouperByName(name, s.cfg.Library)
}

// groupers resolves every repository's grouper, in order.
func (s *Service) groupers(repos []journal.RepoSpec) ([]crawler.GroupingFunc, error) {
	gs := make([]crawler.GroupingFunc, len(repos))
	for i, r := range repos {
		var err error
		if gs[i], err = s.Grouper(r.Grouper); err != nil {
			return nil, err
		}
	}
	return gs, nil
}

// Submit starts a job and returns its handle once the submission record is
// durable. The crawl and the pump start at once (and overlap: the paper's
// "begins extracting data within 3 seconds of the crawler starting"),
// alongside the record's fsync; its ticket gates only what leaves the
// process — this return (hence the API's 202) and the pump's results (hence
// every document). The job's other records are ordered behind it by seq, so
// a crash either recovers the job or leaves no trace of it. The record
// carries spec as given, its tenant normalized, and the job runs that value:
// the caller must not change it afterwards. The error is a grouper the
// library does not know or a lease the coordination layer refused: that
// job never ran.
func (s *Service) Submit(ctx context.Context, spec journal.JobSpec) (*Job, error) {
	groupers, err := s.groupers(spec.Repos)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	spec.Tenant = tenant.Normalize(spec.Tenant)
	names := make([]string, 0, len(spec.Repos))
	for _, r := range spec.Repos {
		names = append(names, r.Site)
	}
	jobID := s.cfg.Registry.CreateJob(spec.Tenant, names, s.clk.Now())
	if s.cfg.Cluster != nil {
		// Ownership lease before the submission record: a peer's failover
		// scan sees the job in the journal's live fold only after the
		// lease already guards it, so a just-submitted job can never be
		// adopted out from under its submitter. (Lease records for a job
		// the fold does not know yet are skipped on replay — harmless.)
		// Fresh IDs are node-unique, so acquisition can only fail on a
		// coordination-layer fault.
		if err := s.cfg.Cluster.AcquireJob(jobID); err != nil {
			s.failJob(jobID, spec.Tenant, err)
			return nil, fmt.Errorf("core: job %s: %w", jobID, err)
		}
	}
	var ticket journal.Ticket // zero without a journal: nothing to wait for
	var submitted chan struct{}
	if s.cfg.Journal != nil {
		submitted = make(chan struct{})
		ticket = s.cfg.Journal.Begin(journal.Record{
			Type: journal.RecJobSubmitted, JobID: jobID, Spec: &spec,
		})
	}
	s.obs.Emitf(jobID, obs.EvJobSubmitted, "repositories=%s", strings.Join(names, ","))
	j := s.runJob(ctx, jobID, spec, groupers, submitted)
	if err = ticket.Wait(); err != nil {
		s.obsJournalErrors.Inc() // durability degraded, not correctness: see journalAppend
	}
	if submitted != nil && !errors.Is(err, journal.ErrKilled) {
		close(submitted) // a killed journal is a dead process: its gate stays shut
	}
	return j, nil
}

// runJob is the shared back half of submission, recovery and failover
// adoption (the last two with an open, nil, gate): it enters the job into
// the live-job table and runs it on a goroutine and a context of its own.
func (s *Service) runJob(ctx context.Context, jobID string, spec journal.JobSpec,
	groupers []crawler.GroupingFunc, submitted <-chan struct{}) *Job {
	p := newPump(s, jobID, spec.Tenant, spec.NoCache, submitted)
	j := &Job{ID: jobID, pump: p, done: make(chan struct{})}
	p.jobCtx, j.cancel = context.WithCancel(ctx)
	s.jobs.enter(s, j)
	go func() {
		j.stats, j.err = p.run(spec.Repos, groupers, j.cancel)
		s.jobs.leave(j)
		close(j.done)
	}()
	return j
}

// run crawls and pumps the job to a terminal state.
func (p *pump) run(repos []journal.RepoSpec, groupers []crawler.GroupingFunc, cancelJob context.CancelFunc) (JobStats, error) {
	s := p.s
	s.obsJobsActive.Inc()
	defer s.obsJobsActive.Dec()
	// JobStarted consumes the admission reservation taken at the API
	// front door (or a fresh slot for direct/recovered callers); the
	// deferred JobEnded releases it whichever way the job exits.
	s.cfg.Tenants.JobStarted(p.tenant)
	defer s.cfg.Tenants.JobEnded(p.tenant)
	defer p.teardown(cancelJob)
	err := p.startCrawls(repos, groupers)
	if err == nil {
		_ = s.cfg.Registry.UpdateJob(p.JobID, func(j *registry.JobRecord) {
			j.State = registry.JobExtracting
		})
		err = p.loop(p.jobCtx)
	}
	if err != nil {
		s.failJob(p.JobID, p.tenant, err)
		return JobStats{JobID: p.JobID}, err
	}
	return p.conclude(), nil
}

// startCrawls starts one crawler per repository, with the grouper resolved
// for it, each feeding the job's hand-off, and fails before starting any of the rest on a repository
// whose site is not registered. The crawls run under the job's context:
// teardown stops them on every exit, a worker waiting on a full hand-off
// included.
func (p *pump) startCrawls(repos []journal.RepoSpec, groupers []crawler.GroupingFunc) error {
	s := p.s
	p.crawlDone = make(chan crawler.Stats, len(repos))
	p.crawlErr = make(chan error, len(repos))
	for i, spec := range repos {
		site, ok := s.Site(spec.Site)
		if !ok {
			return fmt.Errorf("core: unknown site %q", spec.Site)
		}
		// What the service itself writes at the site is not the site's data.
		own := store.Hide(site.Store, site.StagePath)
		c := crawler.NewTo(own, groupers[i], p.offerFamilies)
		c.Fingerprint = s.cfg.Cache != nil && !p.noCache
		c.Hashes = s.cfg.Cache // consulted only while fingerprinting
		if spec.CrawlWorkers > 0 {
			c.Workers = spec.CrawlWorkers
		}
		if spec.MaxFamilySize > 0 {
			c.MaxFamilySize = spec.MaxFamilySize
		}
		c.UseMinTransfers = !spec.NoMinTransfers
		c.Totals = &s.crawlTotals
		p.crawlsPending++
		go func(spec journal.RepoSpec) {
			s.obs.Emitf(p.JobID, obs.EvCrawlStarted, "site=%s roots=%d", spec.Site, len(spec.Roots))
			stats, err := c.Crawl(p.jobCtx, spec.Roots)
			if err != nil {
				p.crawlErr <- err
				return
			}
			s.obs.Emitf(p.JobID, obs.EvCrawlFinished, "site=%s files=%d families=%d encode_errors=%d hashed=%d reused=%d fingerprint_errors=%d",
				spec.Site, stats.FilesSeen, stats.FamiliesEmitted, stats.EncodeErrors,
				stats.FilesHashed, stats.HashesReused, stats.FingerprintErrors)
			p.crawlDone <- stats
		}(spec)
	}
	return nil
}

// jobTable is the service's one table of live jobs. runJob enters a job
// before its goroutine starts and that goroutine removes it after
// teardown, on every exit; Cancel, Job and every pump's intakeStaged look
// jobs up in it. One heartbeat scanner runs while it is non-empty.
type jobTable struct {
	mu   sync.Mutex
	live map[string]*Job
	// scanStop ends the running scanner; scanDone closes when it has gone.
	// tick is its pending timer, which a stopped scanner leaves to the
	// next: a service holds one however many busy spells it has.
	scanStop, scanDone chan struct{}
	tick               <-chan time.Time
	strays             atomic.Int64 // staged results no family was waiting for
}

// enter adds j; the first entry starts the heartbeat scanner.
func (t *jobTable) enter(s *Service, j *Job) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.live) == 0 {
		prev := t.scanDone
		t.scanStop, t.scanDone = make(chan struct{}), make(chan struct{})
		go s.scanHeartbeats(prev, t.scanStop, t.scanDone)
	}
	t.live[j.ID] = j
}

// leave removes j; the last removal ends the heartbeat scanner.
func (t *jobTable) leave(j *Job) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.live[j.ID] != j {
		return
	}
	delete(t.live, j.ID)
	if len(t.live) == 0 {
		close(t.scanStop)
	}
}

// Job returns the live job with this ID, or nil.
func (s *Service) Job(id string) *Job {
	s.jobs.mu.Lock()
	defer s.jobs.mu.Unlock()
	return s.jobs.live[id]
}

// Cancel ends a live job's context (see failJob) and reports if it was live.
func (s *Service) Cancel(id string) bool {
	j := s.Job(id)
	if j != nil {
		j.cancel()
	}
	return j != nil
}

// scanHeartbeats scans endpoint liveness on its own timer, so tasks
// stranded on a dead allocation surface as LOST — and wake their pump
// through their completion notification — even while the pumps are busy.
// It starts once the scanner before it (prev) has gone, and until stop
// closes is the only user of the table's tick.
func (s *Service) scanHeartbeats(prev, stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	if prev != nil {
		<-prev
	}
	interval := s.cfg.FaaS.HeartbeatTimeout / 4
	if interval < time.Millisecond {
		interval = time.Millisecond
	}
	for {
		if s.jobs.tick == nil {
			s.jobs.tick = s.clk.After(interval)
		}
		select {
		case <-stop:
			return
		case <-s.jobs.tick:
			s.jobs.tick = nil
			s.cfg.FaaS.CheckHeartbeats()
		}
	}
}

// teardown ends a job's pump whichever way the job exits.
func (p *pump) teardown(cancelJob context.CancelFunc) {
	p.flushResults() // error paths must not strand buffered records
	cancelJob()
	p.shardWG.Wait()
	for _, d := range p.shards { // fed after its shard's own sweep, a step still holds a slot
		p.s.cfg.Tenants.ReleaseTasks(p.tenant, len(d.feed))
	}
	// A job that ends early (cancelled, failed crawl) still gives its
	// families' stage space back.
	for _, st := range p.fams {
		p.unstage(st) // the tombstone holds nothing staged
	}
	// A draining node keeps its leases: they expire on their own TTL,
	// which is exactly how a dead node's jobs become adoptable. Any other
	// exit releases the lease after the terminal record (the release
	// record then post-dates it).
	if cl := p.s.cfg.Cluster; cl != nil && !p.s.draining.Load() {
		cl.ReleaseJob(p.JobID)
	}
}

// conclude records a converged job's terminal state and returns its
// stats. The loop drains to convergence even with failures: families that
// exhausted their retries are quarantined as dead letters, and a job
// with any of them terminates FAILED — with the dead-letter report on
// its record — rather than COMPLETE or hung.
func (p *pump) conclude() JobStats {
	s := p.s
	p.Elapsed = s.clk.Since(p.start)
	state := registry.JobComplete
	event := obs.EvJobCompleted
	var errMsg string
	switch {
	case p.FamiliesFailed > 0 || (p.StepsDeadLettered > 0 && !p.withinStragglerBudget()):
		state = registry.JobFailed
		event = obs.EvJobFailed
		errMsg = fmt.Sprintf("core: %d families failed, %d steps dead-lettered",
			p.FamiliesFailed, p.StepsDeadLettered)
	case p.FamiliesDegraded > 0:
		// Dead-lettered stragglers stayed inside the budget: the job
		// converged with partial results rather than failing outright.
		state = registry.JobDegraded
		p.Degraded = true
		errMsg = fmt.Sprintf("core: degraded: %d families partial, %d steps dead-lettered",
			p.FamiliesDegraded, p.StepsDeadLettered)
	}
	s.endJob(p.JobID, p.tenant, state, errMsg, func(j *registry.JobRecord) {
		j.GroupsCrawled, j.GroupsDone = p.Crawl.GroupsFormed, p.StepsProcessed
	})
	s.obs.Emitf(p.JobID, event, "families_failed=%d steps_dead_lettered=%d cache_hits=%d elapsed=%s",
		p.FamiliesFailed, p.StepsDeadLettered, p.CacheHits, p.Elapsed)
	return p.JobStats
}

// withinStragglerBudget reports whether the job's dead-lettered steps so
// far still fit the straggler budget (never, when there is none).
func (p *pump) withinStragglerBudget() bool {
	budget := int64(p.s.cfg.StragglerBudget)
	return budget > 0 && p.StepsDeadLettered <= budget
}

// failJob marks a job record terminal after an error: CANCELLED when the
// context was cancelled (the DELETE /jobs/{id} path), FAILED otherwise.
// During a graceful shutdown the cancellation is the restart itself, so
// nothing terminal is recorded — the journal keeps the job live and
// recovery resumes it. ten is the owning tenant for outcome accounting.
func (s *Service) failJob(jobID, ten string, err error) {
	if s.cfg.Cluster != nil && !s.cfg.Cluster.HoldsLive(jobID) && !s.draining.Load() {
		// The job's lease moved to another node (this pump was cancelled
		// by fencing, not by the user): the new owner drives the job to
		// its real outcome; recording a terminal state here would be the
		// split-brain write the fence exists to stop.
		return
	}
	state := registry.JobFailed
	event := obs.EvJobFailed
	if errors.Is(err, context.Canceled) {
		if s.draining.Load() {
			return
		}
		state = registry.JobCancelled
		event = obs.EvJobCancelled
	}
	s.endJob(jobID, ten, state, err.Error(), nil)
	s.obs.Emit(jobID, event, err.Error())
}

// endJob records a job's terminal state, durable before visible: a client
// that reads it finds it after a crash (a journal device error degrades
// exactly that, nothing else). A cancellation has a record type of its own
// — a restarted service must not resurrect a job the user cancelled. more,
// when set, adds to the registry record in the same update.
func (s *Service) endJob(jobID, ten string, state registry.JobState, errMsg string, more func(*registry.JobRecord)) {
	rec := journal.Record{Type: journal.RecJobTerminal, JobID: jobID, State: string(state), Err: errMsg}
	if state == registry.JobCancelled {
		rec = journal.Record{Type: journal.RecJobCancelled, JobID: jobID, Err: errMsg}
	}
	s.journalAppend(rec)
	_ = s.cfg.Registry.UpdateJob(jobID, func(j *registry.JobRecord) {
		j.State, j.Err = state, errMsg
		if more != nil {
			more(j)
		}
	})
	s.obsJobs.with(string(state)).Inc()
	s.cfg.Tenants.JobOutcome(ten, string(state))
}

// NewQueues is a convenience constructor for the four queues a service
// needs, named after their paper counterparts.
func NewQueues(clk clock.Clock) (families, prefetch, prefetchDone, results *queue.Queue) {
	return queue.New("crawl-families", clk),
		queue.New("prefetch-tasks", clk),
		queue.New("prefetch-done", clk),
		queue.New("validation-results", clk)
}

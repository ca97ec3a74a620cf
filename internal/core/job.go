package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"xtract/internal/cache"
	"xtract/internal/clock"
	"xtract/internal/crawler"
	"xtract/internal/extractors"
	"xtract/internal/faas"
	"xtract/internal/family"
	"xtract/internal/fastjson"
	"xtract/internal/journal"
	"xtract/internal/obs"
	"xtract/internal/queue"
	"xtract/internal/registry"
	"xtract/internal/scheduler"
	"xtract/internal/tenant"
	"xtract/internal/transfer"
	"xtract/internal/validate"
)

// RepoSpec names one repository to process within a job.
type RepoSpec struct {
	// SiteName is the registered site holding the repository.
	SiteName string
	// Roots are the directories to crawl.
	Roots []string
	// Grouper is the file grouping function.
	Grouper crawler.GroupingFunc
	// GrouperName is the symbolic name Grouper was resolved from, when
	// known. It is what the journal persists — functions cannot survive a
	// restart — and what recovery resolves back to a GroupingFunc.
	GrouperName string
	// CrawlWorkers sizes the crawler's thread pool (default 16).
	CrawlWorkers int
	// UseMinTransfers toggles min-transfer family packaging (default on
	// when unset via the NoMinTransfers flag).
	NoMinTransfers bool
	// MaxFamilySize is the family size bound s (default 16).
	MaxFamilySize int
}

// JobStats summarizes a finished job. Every counter is scoped to this
// job alone — concurrent jobs on one service each report only their own
// work; the Service-level counters remain as service-lifetime aggregates.
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
	// PumpWakeups counts orchestration-loop wakeups: how many times the
	// pump woke to look for work (loop iterations under the poll–sleep
	// design; event-wait returns under the event-driven one).
	// PumpIdleWakeups counts the subset that found nothing to do — pure
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
	// completions discarded by the exactly-once fence.
	StepsHedged    int64
	HedgeWins      int64
	DuplicateSteps int64
	// Degraded marks the job's terminal state DEGRADED: it converged with
	// partial results inside the straggler budget.
	Degraded bool
	Elapsed  time.Duration
}

// PipelineKind names the orchestration pipeline implementation, recorded
// in benchmark output so perf trajectories compare like with like. The
// poll–sleep pipeline (iterate every source, sleep 2 ms when idle, poll
// the fabric for completions) was replaced by this event-driven one: the
// pump blocks on wakeup channels and completion notifications, and
// per-site dispatcher shards own batching and submission.
const PipelineKind = "event-driven"

// JobOptions carries per-job overrides.
type JobOptions struct {
	// NoCache bypasses the extraction result cache for this job: the
	// crawler skips content fingerprinting and the pump neither consults
	// nor updates the cache.
	NoCache bool
	// Tenant owns the job for quota, fair-share, and cost accounting
	// ("" = the default tenant).
	Tenant string
}

// stepRef ties a dispatched step back to its family.
type stepRef struct {
	famID string
	step  scheduler.Step
}

// famState is the service-side record of one in-flight family.
type famState struct {
	fam     family.Family
	plan    *scheduler.Plan
	site    *Site
	pathMap map[string]string
	// results holds each finished step's metadata as the worker encoded
	// it; the bytes are shared with the cache and the journal.
	results map[string]fastjson.Raw
	// cacheKeys remembers the key a step missed the cache under, so its
	// completion writes back without deriving the key again.
	cacheKeys map[scheduler.Step]cache.Key
	steps     []validate.StepResult
	staged    bool
	fetchFrom string // direct-fetch source endpoint ("" = local/staged)
	xferDur   time.Duration

	// prefetchBody is the serialized staging task, kept for re-sends.
	prefetchBody []byte
	// stageAttempts counts staging tries for this family.
	stageAttempts int
	// deadLettered counts this family's quarantined steps; any > 0 makes
	// the family fail once its plan drains.
	deadLettered int
}

// stepKey identifies one (family, group, extractor) step for retry
// accounting.
type stepKey struct {
	famID string
	step  scheduler.Step
}

// retryItem is one backlog entry: a step (or staging task) waiting out
// its backoff before re-dispatch.
type retryItem struct {
	at      time.Time
	famID   string
	step    scheduler.Step
	staging bool
}

// hedgeItem arms one submitted task's hedge deadline: when the task is
// still running at `at`, each of its unfinished steps gets a
// speculative duplicate.
type hedgeItem struct {
	at     time.Time
	taskID string
}

// pump is the orchestration state for one job. Family state stays
// single-threaded — only the pump goroutine touches states, staging,
// attempts, backlog, and budget, which is what keeps the PR2 retry/
// dead-letter and PR3 cache semantics intact — while batching,
// submission, and completion collection live in per-site dispatcher
// shards (dispatch.go) that the pump talks to over channels.
type pump struct {
	s     *Service
	jobID string
	// tenant owns the job: dispatch admission and cost accounting are
	// billed against it.
	tenant string
	start  time.Time
	// famQ is this job's private crawl-output queue; a shared queue would
	// let concurrent pumps steal each other's families.
	famQ      *queue.Queue
	noCache   bool
	states    map[string]*famState
	staging   map[string]*famState
	failedFam int64

	// jobCtx scopes shard goroutines to this job; events fans their
	// terminal-task and dispatch-failure notifications back in; shards
	// holds one dispatcher per site, created on first use.
	jobCtx  context.Context
	events  *shardEventSink
	shards  map[string]*dispatcher
	shardWG sync.WaitGroup
	// prefetchGate, when non-nil, pauses PrefetchDone reads briefly after
	// a batch that held only other jobs' results: Nacking those re-signals
	// the shared queue's ready channel, and the gate breaks the wakeup
	// ping-pong that two staging jobs could otherwise spin on.
	prefetchGate <-chan time.Time

	// Job-scoped progress counters. The Service keeps matching counters,
	// but those aggregate across every job the service has ever run;
	// JobStats must be built from these so concurrent jobs never report
	// each other's work.
	familiesDone     int64
	stepsProcessed   int64
	stepsFailed      int64
	tasksResubmitted int64
	bytesStaged      int64
	cacheHits        int64
	cacheMisses      int64

	// attempts counts executions per step; backlog holds steps waiting
	// out a retry backoff; budget is the job's remaining retry budget.
	attempts     map[stepKey]int
	backlog      []retryItem
	budget       int
	retried      int64
	deadLettered int64
	wakeups      int64
	idleWakeups  int64

	// seenFams dedups family intake: the crawl queue has SQS semantics,
	// so a visibility expiry racing completion redelivers a family under
	// a fresh receipt, and processing it twice would double every step's
	// billing and journal record.
	seenFams map[string]bool

	// Hedging state, allocated only when the hedge policy is enabled (a
	// nil doneSteps map means every hedge path below is skipped and the
	// pipeline behaves exactly as before).
	//
	// doneSteps is the exactly-once fence: the first completion of a
	// step claims it here, and every later (duplicate) completion is
	// discarded before any side effect — plan advancement, cache
	// write-back, journal record, billing, stats — can repeat.
	doneSteps map[stepKey]bool
	// liveAttempts counts in-flight executions per step (1 normally, 2
	// while hedged); a failure is swallowed while other attempts are
	// live, so only the last attempt's failure reaches retry/dead-letter.
	liveAttempts map[stepKey]int
	// stepTasks maps a step to the task IDs carrying it, for loser
	// cancellation; taskRefs is the reverse (task → steps), from
	// submitted events; hedgeTasks holds first-attempt tasks whose
	// deadline is armed in hedgeQ; hedgedSteps marks steps already
	// hedged once (a step is never hedged twice).
	stepTasks   map[stepKey][]string
	taskRefs    map[string][]stepRef
	hedgeTasks  map[string][]stepRef
	hedgeQ      []hedgeItem
	hedgedSteps map[stepKey]bool
	// taskSubmitted records when each task was accepted by the fabric:
	// the estimator is fed end-to-end latency (submit → terminal, the
	// same span the hedge deadline is armed over), so endpoint queueing
	// is priced into the deadline instead of counting against it.
	taskSubmitted map[string]time.Time

	stepsHedged    int64
	hedgeWins      int64
	duplicateSteps int64
	degradedFam    int64

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

// flushResults batch-sends the buffered validation records, unless the
// submission gate still holds them. Called once per pump pass and deferred
// for the error-return paths.
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

// RunJob crawls the given repositories and orchestrates extraction until
// every family's plan completes. Crawling and extraction overlap: the
// service dequeues families as the crawler emits them (the paper's
// "begins extracting data within 3 seconds of the crawler starting").
func (s *Service) RunJob(ctx context.Context, repos []RepoSpec) (JobStats, error) {
	return s.RunJobNotifyOpts(ctx, repos, JobOptions{}, nil)
}

// RunJobWithOptions is RunJob with per-job overrides.
func (s *Service) RunJobWithOptions(ctx context.Context, repos []RepoSpec, opts JobOptions) (JobStats, error) {
	return s.RunJobNotifyOpts(ctx, repos, opts, nil)
}

// journalSpec converts a job's repo list and options to the journal's
// serializable form (the GroupingFunc travels as its symbolic name).
func journalSpec(repos []RepoSpec, opts JobOptions) *journal.JobSpec {
	js := &journal.JobSpec{NoCache: opts.NoCache, Tenant: tenant.Normalize(opts.Tenant)}
	for _, r := range repos {
		js.Repos = append(js.Repos, journal.RepoSpec{
			Site:           r.SiteName,
			Roots:          append([]string(nil), r.Roots...),
			Grouper:        r.GrouperName,
			CrawlWorkers:   r.CrawlWorkers,
			MaxFamilySize:  r.MaxFamilySize,
			NoMinTransfers: r.NoMinTransfers,
		})
	}
	return js
}

// RunJobNotifyOpts is the full-surface job entry point: overrides plus
// job-ID notification. The crawl and the pump start at once, alongside the
// submission record's fsync; its ticket gates only what leaves the process
// — the job ID on idCh (hence the API's 202) and the pump's results (hence
// every document). The job's other records are ordered behind it by seq,
// so a crash either recovers the job or leaves no trace of it.
func (s *Service) RunJobNotifyOpts(ctx context.Context, repos []RepoSpec, opts JobOptions, idCh chan<- string) (JobStats, error) {
	names := make([]string, 0, len(repos))
	for _, r := range repos {
		names = append(names, r.SiteName)
	}
	jobID := s.cfg.Registry.CreateJob(tenant.Normalize(opts.Tenant), names, s.clk.Now())
	if s.cfg.Cluster != nil {
		// Ownership lease before the submission record: a peer's failover
		// scan sees the job in the journal's live fold only after the
		// lease already guards it, so a just-submitted job can never be
		// adopted out from under its submitter. (Lease records for a job
		// the fold does not know yet are skipped on replay — harmless.)
		// Fresh IDs are node-unique, so acquisition can only fail on a
		// coordination-layer fault.
		if err := s.cfg.Cluster.AcquireJob(jobID); err != nil {
			s.failJob(jobID, tenant.Normalize(opts.Tenant), err)
			return JobStats{JobID: jobID}, err
		}
	}
	var ticket journal.Ticket // zero without a journal: nothing to wait for
	var submitted chan struct{}
	if s.cfg.Journal != nil {
		submitted = make(chan struct{})
		ticket = s.cfg.Journal.Begin(journal.Record{
			Type: journal.RecJobSubmitted, JobID: jobID, Spec: journalSpec(repos, opts),
		})
	}
	go func() {
		err := ticket.Wait()
		if err != nil {
			s.obsJournalErrors.Inc() // durability degraded, not correctness: see journalAppend
		}
		if submitted != nil && !errors.Is(err, journal.ErrKilled) {
			close(submitted) // a killed journal is a dead process: its gate stays shut
		}
		if idCh == nil {
			return
		}
		// A buffered channel takes the ID whether or not the job was
		// cancelled meanwhile; an unbuffered reader that went away is
		// abandoned when the job's context ends.
		select {
		case idCh <- jobID:
		default:
			select {
			case idCh <- jobID:
			case <-ctx.Done():
			}
		}
	}()
	s.obs.Emitf(jobID, obs.EvJobSubmitted, "repositories=%s", strings.Join(names, ","))
	return s.runJob(ctx, jobID, repos, opts, submitted)
}

// runJob crawls and pumps one job to a terminal state under an existing
// job record. It is the shared back half of submission and journal
// recovery — recovery re-enters here with the restored job ID and an
// open (nil) submission gate.
func (s *Service) runJob(ctx context.Context, jobID string, repos []RepoSpec, opts JobOptions,
	submitted <-chan struct{}) (JobStats, error) {
	s.obsJobsActive.Inc()
	defer s.obsJobsActive.Dec()
	ten := tenant.Normalize(opts.Tenant)
	// JobStarted consumes the admission reservation taken at the API
	// front door (or a fresh slot for direct/recovered callers); the
	// deferred JobEnded releases it whichever way the job exits.
	s.cfg.Tenants.JobStarted(ten)
	defer s.cfg.Tenants.JobEnded(ten)

	// Each job crawls into its own private family queue: with a shared
	// queue, concurrent jobs would steal each other's families (and hence
	// each other's results and stats).
	famQ := queue.New("crawl-families/"+jobID, s.clk)

	crawlDone := make(chan crawler.Stats, len(repos))
	crawlErr := make(chan error, len(repos))
	for _, spec := range repos {
		site, ok := s.Site(spec.SiteName)
		if !ok {
			err := fmt.Errorf("core: unknown site %q", spec.SiteName)
			s.failJob(jobID, ten, err)
			return JobStats{JobID: jobID}, err
		}
		c := crawler.New(site.Store, spec.Grouper, famQ)
		c.Fingerprint = s.cfg.Cache != nil && !opts.NoCache
		c.Hashes = s.cfg.Cache // consulted only while fingerprinting
		if spec.CrawlWorkers > 0 {
			c.Workers = spec.CrawlWorkers
		}
		if spec.MaxFamilySize > 0 {
			c.MaxFamilySize = spec.MaxFamilySize
		}
		c.UseMinTransfers = !spec.NoMinTransfers
		c.Obs = s.obsCrawl
		go func(spec RepoSpec) {
			s.obs.Emitf(jobID, obs.EvCrawlStarted, "site=%s roots=%d", spec.SiteName, len(spec.Roots))
			stats, err := c.Crawl(ctx, spec.Roots)
			if err != nil {
				crawlErr <- err
				return
			}
			s.obs.Emitf(jobID, obs.EvCrawlFinished, "site=%s files=%d families=%d encode_errors=%d hashed=%d reused=%d fingerprint_errors=%d",
				spec.SiteName, stats.FilesSeen, stats.FamiliesEmitted, stats.EncodeErrors,
				stats.FilesHashed, stats.HashesReused, stats.FingerprintErrors)
			crawlDone <- stats
		}(spec)
	}

	jobCtx, cancelJob := context.WithCancel(ctx)
	p := &pump{
		s:         s,
		jobID:     jobID,
		tenant:    ten,
		start:     s.clk.Now(),
		famQ:      famQ,
		noCache:   opts.NoCache,
		states:    make(map[string]*famState),
		staging:   make(map[string]*famState),
		jobCtx:    jobCtx,
		events:    newShardEventSink(),
		shards:    make(map[string]*dispatcher),
		attempts:  make(map[stepKey]int),
		budget:    s.retry.JobBudget,
		seenFams:  make(map[string]bool),
		submitted: submitted,
	}
	if s.hedge.Enabled {
		p.doneSteps = make(map[stepKey]bool)
		p.liveAttempts = make(map[stepKey]int)
		p.stepTasks = make(map[stepKey][]string)
		p.taskRefs = make(map[string][]stepRef)
		p.hedgeTasks = make(map[string][]stepRef)
		p.hedgedSteps = make(map[stepKey]bool)
		p.taskSubmitted = make(map[string]time.Time)
	}
	defer func() {
		p.flushResults() // error paths must not strand buffered records
		cancelJob()
		p.shardWG.Wait()
		// A job that ends early (cancelled, failed crawl) still gives its
		// families' stage space back.
		for _, st := range p.states {
			p.unstage(st)
		}
		for _, st := range p.staging {
			p.unstage(st)
		}
		if s.cfg.Cluster != nil {
			s.cfg.Cluster.UntrackPump(jobID)
			// A draining node keeps its leases: they expire on their own
			// TTL, which is exactly how a dead node's jobs become
			// adoptable. Any other exit releases the lease after the
			// terminal record (the release record then post-dates it).
			if !s.draining.Load() {
				s.cfg.Cluster.ReleaseJob(jobID)
			}
		}
	}()
	if s.cfg.Cluster != nil {
		s.cfg.Cluster.TrackPump(jobID, cancelJob)
	}
	// Endpoint liveness is scanned on its own timer, decoupled from pump
	// progress, so tasks stranded on a dead allocation surface as LOST —
	// and wake the pump through their completion notification — even
	// while the pump is busy with a submission burst.
	go func() {
		interval := s.cfg.FaaS.HeartbeatTimeout / 4
		if interval < time.Millisecond {
			interval = time.Millisecond
		}
		for {
			select {
			case <-jobCtx.Done():
				return
			case <-s.clk.After(interval):
				s.cfg.FaaS.CheckHeartbeats()
			}
		}
	}()
	_ = s.cfg.Registry.UpdateJob(jobID, func(j *registry.JobRecord) {
		j.State = registry.JobExtracting
	})

	// The pump is event-driven: each cycle drains every actionable source
	// to empty, then blocks in await until a wakeup channel signals. The
	// wakeup/idle split is the orchestration bench's headline number — an
	// idle wakeup means a signal fired with nothing for this job to do
	// (essentially only foreign results on the shared prefetch queue).
	var crawlStats crawler.Stats
	crawlsPending := len(repos)
	woke := "start"
	for {
		progress := false
		for {
			pass := false
			// Collect finished crawls without blocking.
			for crawlsPending > 0 {
				select {
				case stats := <-crawlDone:
					crawlStats.Add(stats)
					crawlsPending--
					pass = true
					continue
				case err := <-crawlErr:
					s.failJob(jobID, ten, err)
					return JobStats{JobID: jobID}, err
				default:
				}
				break
			}
			if p.intakeFamilies() {
				pass = true
			}
			if p.intakeStaged() {
				pass = true
			}
			if p.intakeRetries() {
				pass = true
			}
			if p.intakeHedges() {
				pass = true
			}
			if p.handleEvents() {
				pass = true
			}
			if !pass {
				break
			}
			// Families finished this pass go to the validator now, so it
			// works alongside a pump that rarely goes idle.
			p.flushResults()
			progress = true
		}
		// The job-start drain and crawl completions are work in themselves
		// even when no step became actionable; anything else that woke the
		// pump for nothing is counted as idle overhead.
		if !progress && woke != "start" && woke != "crawl" && woke != "durable" {
			p.idleWakeups++
			s.wakeupCounter("idle").Inc()
		}
		// Termination: nothing crawling, no live or staging families, no
		// retries pending, no shard events in flight, and the family queue
		// drained. Families stay in p.states until their plan resolves, so
		// an empty state map also means no outstanding shard work. Results
		// held behind the submission gate keep the job open.
		if crawlsPending == 0 && len(p.states) == 0 && len(p.staging) == 0 &&
			len(p.backlog) == 0 && p.events.pending() == 0 && famQ.Len() == 0 &&
			len(p.pendingResults) == 0 {
			break
		}
		var err error
		woke, err = p.await(ctx, crawlDone, crawlErr, &crawlStats, &crawlsPending)
		if err != nil {
			s.failJob(jobID, ten, err)
			return JobStats{JobID: jobID}, err
		}
		p.wakeups++
		s.wakeupCounter(woke).Inc()
	}

	elapsed := s.clk.Since(p.start)
	// The loop drains to convergence even with failures: families that
	// exhausted their retries are quarantined as dead letters, and a job
	// with any of them terminates FAILED — with the dead-letter report on
	// its record — rather than COMPLETE or hung.
	state := registry.JobComplete
	event := obs.EvJobCompleted
	var errMsg string
	stragglers := int64(s.cfg.StragglerBudget)
	switch {
	case p.failedFam > 0 || (p.deadLettered > 0 && (stragglers <= 0 || p.deadLettered > stragglers)):
		state = registry.JobFailed
		event = obs.EvJobFailed
		errMsg = fmt.Sprintf("core: %d families failed, %d steps dead-lettered",
			p.failedFam, p.deadLettered)
	case p.degradedFam > 0:
		// Dead-lettered stragglers stayed inside the budget: the job
		// converged with partial results rather than failing outright.
		state = registry.JobDegraded
		errMsg = fmt.Sprintf("core: degraded: %d families partial, %d steps dead-lettered",
			p.degradedFam, p.deadLettered)
	}
	_ = s.cfg.Registry.UpdateJob(jobID, func(j *registry.JobRecord) {
		j.State = state
		j.GroupsCrawled = crawlStats.GroupsFormed
		j.GroupsDone = p.stepsProcessed
		j.Err = errMsg
	})
	s.journalAppend(journal.Record{
		Type: journal.RecJobTerminal, JobID: jobID,
		State: string(state), Err: errMsg,
	})
	s.jobStateCounter(state).Inc()
	s.cfg.Tenants.JobOutcome(ten, string(state))
	s.obs.Emitf(jobID, event, "families_failed=%d steps_dead_lettered=%d cache_hits=%d elapsed=%s",
		p.failedFam, p.deadLettered, p.cacheHits, elapsed)
	return JobStats{
		JobID:             jobID,
		Crawl:             crawlStats,
		FamiliesDone:      p.familiesDone,
		FamiliesFailed:    p.failedFam,
		StepsProcessed:    p.stepsProcessed,
		StepsFailed:       p.stepsFailed,
		TasksResubmitted:  p.tasksResubmitted,
		StepsRetried:      p.retried,
		StepsDeadLettered: p.deadLettered,
		BytesStaged:       p.bytesStaged,
		CacheHits:         p.cacheHits,
		CacheMisses:       p.cacheMisses,
		PumpWakeups:       p.wakeups,
		PumpIdleWakeups:   p.idleWakeups,
		FamiliesDegraded:  p.degradedFam,
		StepsHedged:       p.stepsHedged,
		HedgeWins:         p.hedgeWins,
		DuplicateSteps:    p.duplicateSteps,
		Degraded:          state == registry.JobDegraded,
		Elapsed:           elapsed,
	}, nil
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
	_ = s.cfg.Registry.UpdateJob(jobID, func(j *registry.JobRecord) {
		j.State = state
		j.Err = err.Error()
	})
	if state == registry.JobCancelled {
		// Durable cancellation: a restarted service must not resurrect a
		// job the user cancelled.
		s.journalAppend(journal.Record{Type: journal.RecJobCancelled, JobID: jobID, Err: err.Error()})
	} else {
		s.journalAppend(journal.Record{Type: journal.RecJobTerminal, JobID: jobID, State: string(state), Err: err.Error()})
	}
	s.jobStateCounter(state).Inc()
	s.cfg.Tenants.JobOutcome(ten, string(state))
	s.obs.Emit(jobID, event, err.Error())
}

// intakeFamilies pulls crawled families off this job's private queue,
// places them, and either readies them for dispatch or sends them to the
// prefetcher.
func (p *pump) intakeFamilies() bool {
	msgs := p.famQ.Receive(64, 5*time.Minute)
	if len(msgs) == 0 {
		// Empty queue with a pending ready token means an earlier pass
		// already consumed the messages the token announced. Absorb the
		// stale token so it doesn't wake the pump for nothing, then
		// re-check: a send racing the absorb re-signals the channel, so
		// no wakeup is ever lost.
		select {
		case <-p.famQ.Ready():
			msgs = p.famQ.Receive(64, 5*time.Minute)
		default:
		}
		if len(msgs) == 0 {
			return false
		}
	}
	receipts := make([]string, 0, len(msgs))
	for _, m := range msgs {
		receipts = append(receipts, m.Receipt)
		fam, err := family.DecodeFamily(m.Body)
		if err != nil {
			// The family's identity went with its body: fail it under the
			// queue message ID so the job cannot end COMPLETE a document
			// short.
			p.failFamily(m.ID, "undecodable family body: "+err.Error(), 0)
			continue
		}
		if p.seenFams[fam.ID] {
			// Redelivery: the message's visibility expired while a slow
			// intake pass was still holding it, so the queue handed it out
			// again under a fresh receipt. The family is already placed (or
			// finished) — running it twice would double-complete every
			// step — so only the receipt is acknowledged.
			continue
		}
		p.seenFams[fam.ID] = true
		p.s.obs.Emitf(p.jobID, obs.EvFamilyEnqueued, "family=%s groups=%d bytes=%d",
			fam.ID, len(fam.Groups), fam.TotalBytes())
		p.journal(journal.Record{
			Type: journal.RecFamilyEnqueued, FamilyID: fam.ID, Groups: len(fam.Groups),
		})
		p.placeFamily(fam)
	}
	p.famQ.DeleteBatch(receipts) // one lock acquisition for the whole batch
	return true
}

// journal appends one record for this job and nobody waits for it: step
// and family transitions leave with the journal's next waited batch.
// (Cancellation and terminal state go through Service.journalAppend.)
func (p *pump) journal(rec journal.Record) {
	rec.JobID = p.jobID
	p.s.journalWrite(rec, (*journal.Journal).AppendAsync)
}

// journalStepCompleted records one finished step. The record carries the
// step's content-addressed cache key (when the step is cacheable) and its
// metadata, which is what lets recovery seed the result cache so no
// extractor re-runs for work completed before a crash.
func (p *pump) journalStepCompleted(famID string, step scheduler.Step,
	md fastjson.Raw, key cache.Key, cacheable, fromCache bool) {
	if p.s.cfg.Journal == nil {
		return
	}
	rec := journal.Record{
		Type: journal.RecStepCompleted, FamilyID: famID,
		GroupID: step.GroupID, Extractor: step.Extractor, Cached: fromCache,
		Metadata: orNull(md),
	}
	if cacheable {
		rec.CacheKey = &journal.CacheKey{ContentHash: key.ContentHash, Version: key.Version}
	}
	p.journal(rec)
}

// orNull is how a step's metadata is journaled and checkpointed: a step
// without any as null (json.Marshal(nil map) == null).
func orNull(md fastjson.Raw) fastjson.Raw {
	if len(md) == 0 {
		return fastjson.Raw("null")
	}
	return md
}

// placeFamily runs the placement policy and routes the family either
// straight to dispatch or through the prefetcher.
func (p *pump) placeFamily(fam family.Family) {
	home, ok := p.s.Site(fam.Store)
	if !ok {
		p.failFamily(fam.ID, "unknown home site "+fam.Store, 0)
		return
	}
	var alternates []scheduler.SiteState
	p.s.mu.Lock()
	for name, site := range p.s.sites {
		if name != home.Name && site.HasCompute() {
			alternates = append(alternates, site.state())
		}
	}
	p.s.mu.Unlock()
	targetName := p.s.cfg.Policy.Place(&fam, home.state(), alternates)
	target, ok := p.s.Site(targetName)
	if !ok || !target.HasCompute() {
		// No compute anywhere reachable: the family cannot be processed.
		p.failFamily(fam.ID, "no compute site for placement", 0)
		return
	}

	st := &famState{
		fam:     fam,
		plan:    scheduler.BuildPlan(&fam),
		site:    target,
		pathMap: make(map[string]string),
		results: make(map[string]fastjson.Raw),
	}
	if target.Name == home.Name {
		for path := range fam.FileMeta {
			st.pathMap[path] = path
		}
		p.states[fam.ID] = st
		p.bucketReadySteps(st)
		// A family whose every step was served from the result cache never
		// reaches the task-completion path — close it out here.
		p.finishIfDone(st)
		return
	}
	if target.DirectFetch {
		// No shared file system at the target: workers download each file
		// from the home data layer at extraction time (Table 3's pods).
		for path := range fam.FileMeta {
			st.pathMap[path] = path
		}
		st.fetchFrom = home.TransferID
		p.states[fam.ID] = st
		p.bucketReadySteps(st)
		p.finishIfDone(st)
		return
	}
	// Staging required: the target must have room for the family's bytes
	// (Listing 2's available_gb). When the chosen site is full, fall back
	// to another compute site with space; with none, the family fails.
	need := fam.TotalBytes()
	if !target.reserveStage(need) {
		target = nil
		p.s.mu.Lock()
		for name, site := range p.s.sites {
			if name != home.Name && site.HasCompute() && site.reserveStage(need) {
				target = site
				break
			}
		}
		p.s.mu.Unlock()
		if target == nil {
			p.failFamily(fam.ID, "no staging capacity", 0)
			return
		}
		st.site = target
	}
	// Map every family file into the target stage dir.
	var pairs []transfer.FilePair
	for path := range fam.FileMeta {
		staged := target.StagePath + path
		st.pathMap[path] = staged
		pairs = append(pairs, transfer.FilePair{Src: path, Dst: staged})
	}
	st.staged = true
	task := transfer.PrefetchTask{
		FamilyID: fam.ID,
		Src:      home.TransferID,
		Dst:      target.TransferID,
		Pairs:    pairs,
	}
	body := transfer.AppendPrefetchTask(nil, &task)
	st.prefetchBody = body
	st.stageAttempts = 1
	p.s.cfg.PrefetchQueue.Send(body)
	p.staging[fam.ID] = st
	p.s.obs.Emitf(p.jobID, obs.EvFamilyStaging, "family=%s dst=%s files=%d",
		fam.ID, target.Name, len(pairs))
}

// failFamily abandons a family: the trace records why, and the job
// record gets a family-level dead letter so no metadata is lost without
// an audit entry.
func (p *pump) failFamily(famID, reason string, attempts int) {
	p.failedFam++
	p.s.obsFamiliesFailed.Inc()
	p.s.obsDeadLetterFam.Inc()
	_ = p.s.cfg.Registry.UpdateJob(p.jobID, func(j *registry.JobRecord) {
		j.AddDeadLetter(registry.DeadLetter{
			Kind:     "family",
			FamilyID: famID,
			Attempts: attempts,
			Reason:   reason,
			At:       p.s.clk.Now(),
		})
	})
	p.s.obs.Emitf(p.jobID, obs.EvFamilyFailed, "family=%s abandoned: %s", famID, reason)
	p.journal(journal.Record{Type: journal.RecFamilyFailed, FamilyID: famID, Reason: reason})
}

// retryOrDeadLetter routes one failed or lost step: if the step still
// has attempts left and the job still has retry budget, it is scheduled
// onto the backoff backlog and true is returned; otherwise the step is
// quarantined as a dead letter and false is returned. The step must be
// in the plan's issued set either way (it stays issued while waiting out
// the backoff, so the plan does not report Done prematurely). cause is a
// low-cardinality label ("lost", "failed", ...); detail may carry the
// underlying error text for the trace and dead-letter record.
func (p *pump) retryOrDeadLetter(st *famState, step scheduler.Step, cause, detail string) bool {
	reason := cause
	if detail != "" {
		reason = cause + ": " + detail
	}
	key := stepKey{st.fam.ID, step}
	p.attempts[key]++
	n := p.attempts[key]
	if n < p.s.retry.MaxAttempts && p.budget > 0 {
		p.budget--
		p.retried++
		p.s.StepsRetried.Inc()
		d := p.s.retry.backoff(st.fam.ID+"/"+step.GroupID+"/"+step.Extractor, n)
		p.backlog = append(p.backlog, retryItem{
			at:    p.s.clk.Now().Add(d),
			famID: st.fam.ID,
			step:  step,
		})
		p.s.retryCounter(cause).Inc()
		p.s.obsRetryBackoff.ObserveDuration(d)
		p.s.obs.Emitf(p.jobID, obs.EvTaskRetried,
			"family=%s group=%s extractor=%s attempt=%d backoff=%s cause=%s",
			st.fam.ID, step.GroupID, step.Extractor, n, d, reason)
		p.journal(journal.Record{
			Type: journal.RecStepRetried, FamilyID: st.fam.ID,
			GroupID: step.GroupID, Extractor: step.Extractor,
			Attempt: n, Reason: reason,
		})
		return true
	}
	if n < p.s.retry.MaxAttempts {
		p.s.obsBudgetExhausted.Inc()
		reason = "retry budget exhausted: " + reason
	}
	p.deadLetterStep(st, step, n, reason)
	return false
}

// deadLetterStep quarantines a poison step: its plan entry is marked
// failed, the job record gets a dead-letter entry, and the family is
// doomed to fail once its plan drains.
func (p *pump) deadLetterStep(st *famState, step scheduler.Step, attempts int, cause string) {
	st.plan.Fail(step)
	st.deadLettered++
	p.deadLettered++
	p.stepsFailed++
	p.s.cfg.Tenants.StepFailed(p.tenant)
	p.s.StepsFailed.Inc()
	p.s.obsStepsFailed.Inc()
	p.s.StepsDeadLettered.Inc()
	p.s.obsDeadLetterStp.Inc()
	_ = p.s.cfg.Registry.UpdateJob(p.jobID, func(j *registry.JobRecord) {
		j.AddDeadLetter(registry.DeadLetter{
			Kind:      "step",
			FamilyID:  st.fam.ID,
			GroupID:   step.GroupID,
			Extractor: step.Extractor,
			Attempts:  attempts,
			Reason:    cause,
			At:        p.s.clk.Now(),
		})
	})
	st.steps = append(st.steps, validate.StepResult{
		GroupID: step.GroupID, Extractor: step.Extractor,
		OK: false, Err: "dead-lettered: " + cause,
	})
	p.s.obs.Emitf(p.jobID, obs.EvTaskDeadLettered,
		"family=%s group=%s extractor=%s attempts=%d cause=%s",
		st.fam.ID, step.GroupID, step.Extractor, attempts, cause)
	p.journal(journal.Record{
		Type: journal.RecStepDeadLettered, FamilyID: st.fam.ID,
		GroupID: step.GroupID, Extractor: step.Extractor,
		Attempt: attempts, Reason: cause,
	})
}

// retryStagingOrFail re-sends a family's prefetch task after a staging
// failure, or abandons the family once attempts (or budget) run out. The
// family stays in p.staging while waiting out the backoff.
func (p *pump) retryStagingOrFail(st *famState, cause string) {
	if st.stageAttempts < p.s.retry.MaxAttempts && p.budget > 0 {
		p.budget--
		p.retried++
		p.s.StepsRetried.Inc()
		d := p.s.retry.backoff(st.fam.ID+"/stage", st.stageAttempts)
		p.backlog = append(p.backlog, retryItem{
			at:      p.s.clk.Now().Add(d),
			famID:   st.fam.ID,
			staging: true,
		})
		p.s.retryCounter("staging").Inc()
		p.s.obsRetryBackoff.ObserveDuration(d)
		p.s.obs.Emitf(p.jobID, obs.EvTaskRetried,
			"family=%s staging attempt=%d backoff=%s cause=%s",
			st.fam.ID, st.stageAttempts, d, cause)
		return
	}
	if st.stageAttempts < p.s.retry.MaxAttempts {
		p.s.obsBudgetExhausted.Inc()
		cause = "retry budget exhausted: " + cause
	}
	delete(p.staging, st.fam.ID)
	p.unstage(st)
	p.failFamily(st.fam.ID, cause, st.stageAttempts)
}

// unstage ends a staged family's claim on its site. With DeleteStaged the
// copies go — once per family, after its last step, because the groups of
// a family share files — and their bytes return to the staging budget.
func (p *pump) unstage(st *famState) {
	if !st.staged || !st.site.DeleteStaged {
		return
	}
	for _, staged := range st.pathMap {
		_ = st.site.Store.Delete(staged) // a copy that never arrived is not an error
	}
	st.site.releaseStage(st.fam.TotalBytes())
}

// intakeRetries re-dispatches backlog entries whose backoff has elapsed:
// steps go back to pending and re-bucket; staging entries re-send their
// prefetch task.
func (p *pump) intakeRetries() bool {
	if len(p.backlog) == 0 {
		return false
	}
	now := p.s.clk.Now()
	rest := p.backlog[:0]
	progress := false
	for _, it := range p.backlog {
		if it.at.After(now) {
			rest = append(rest, it)
			continue
		}
		progress = true
		if it.staging {
			if st, ok := p.staging[it.famID]; ok {
				st.stageAttempts++
				p.s.cfg.PrefetchQueue.Send(st.prefetchBody)
				p.s.obs.Emitf(p.jobID, obs.EvFamilyStaging, "family=%s re-staged attempt=%d",
					st.fam.ID, st.stageAttempts)
			}
			continue
		}
		if st, ok := p.states[it.famID]; ok {
			st.plan.Reset(it.step)
			p.bucketReadySteps(st)
		}
	}
	p.backlog = rest
	return progress
}

// await blocks until some event source signals work for this job: a
// crawl finishing, the family queue, the shared prefetch-done queue
// (only while this job is staging), a shard event, the earliest retry
// backoff elapsing, the foreign-result or the submission gate opening. It
// returns a low-cardinality reason label for the wakeup counter.
func (p *pump) await(ctx context.Context, crawlDone <-chan crawler.Stats, crawlErr <-chan error,
	crawlStats *crawler.Stats, crawlsPending *int) (string, error) {
	var retryCh <-chan time.Time
	if len(p.backlog) > 0 {
		next := p.backlog[0].at
		for _, it := range p.backlog[1:] {
			if it.at.Before(next) {
				next = it.at
			}
		}
		d := next.Sub(p.s.clk.Now())
		if d < 0 {
			d = 0
		}
		retryCh = p.s.clk.After(d)
	}
	cd, ce := crawlDone, crawlErr
	if *crawlsPending == 0 {
		cd, ce = nil, nil
	}
	// The shared prefetch-done queue only matters while this job has
	// families staging; while the foreign-result gate is closed, wait for
	// it to reopen instead of the queue's ready channel.
	var prefetchReady <-chan struct{}
	if p.prefetchGate == nil && len(p.staging) > 0 {
		prefetchReady = p.s.cfg.PrefetchDone.Ready()
	}
	// Hedge deadlines: prune entries whose task already finished, then
	// arm a timer for the earliest surviving deadline.
	var hedgeCh <-chan time.Time
	if p.hedging() && len(p.hedgeQ) > 0 {
		rest := p.hedgeQ[:0]
		var next time.Time
		for _, h := range p.hedgeQ {
			if _, live := p.hedgeTasks[h.taskID]; !live {
				continue
			}
			rest = append(rest, h)
			if next.IsZero() || h.at.Before(next) {
				next = h.at
			}
		}
		p.hedgeQ = rest
		if len(rest) > 0 {
			d := next.Sub(p.s.clk.Now())
			if d < 0 {
				d = 0
			}
			hedgeCh = p.s.clk.After(d)
		}
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
	case stats := <-cd:
		crawlStats.Add(stats)
		*crawlsPending--
		return "crawl", nil
	case err := <-ce:
		return "", err
	case <-p.famQ.Ready():
		return "families", nil
	case <-prefetchReady:
		return "staged", nil
	case <-p.events.Ready():
		return "events", nil
	case <-retryCh:
		return "retry", nil
	case <-hedgeCh:
		return "hedge", nil
	case <-p.prefetchGate:
		p.prefetchGate = nil
		return "staged", nil
	}
}

// handleEvents drains the shard event sink: terminal tasks resolve
// against family plans, dispatch failures go through retry/dead-letter.
func (p *pump) handleEvents() bool {
	evs := p.events.drain()
	if len(evs) == 0 {
		// Absorb a stale ready token (same protocol as intakeFamilies):
		// the events it announced were drained by an earlier pass.
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
		if ev.submitted {
			p.noteSubmitted(ev)
			continue
		}
		if ev.failed {
			for _, r := range ev.refs {
				key := stepKey{r.famID, r.step}
				p.attemptDone(key)
				if p.stepMoot(key) {
					continue // another attempt owns this step's fate
				}
				if st, ok := p.states[r.famID]; ok {
					p.retryOrDeadLetter(st, r.step, ev.cause, ev.detail)
					p.finishIfDone(st)
				}
			}
			continue
		}
		p.handleTerminal(ev.taskID, ev.info, ev.refs, ev.hedge)
	}
	return true
}

// hedging reports whether this pump runs the hedged-execution paths.
func (p *pump) hedging() bool { return p.doneSteps != nil }

// attemptDone retires one in-flight execution of a step.
func (p *pump) attemptDone(key stepKey) {
	if !p.hedging() {
		return
	}
	if n := p.liveAttempts[key]; n > 1 {
		p.liveAttempts[key] = n - 1
	} else if n == 1 {
		delete(p.liveAttempts, key)
	}
}

// stepMoot reports whether a failed attempt for the step can be
// swallowed: the step already completed via another attempt (a hedge
// winner — its cancelled or failed loser is noise), or another attempt
// is still in flight and will drive the step to its own outcome.
func (p *pump) stepMoot(key stepKey) bool {
	if !p.hedging() {
		return false
	}
	return p.doneSteps[key] || p.liveAttempts[key] > 0
}

// noteSubmitted records a task accepted by the fabric: task→step maps
// for loser cancellation, and — for first-attempt tasks — the adaptive
// hedge deadline, scaled by the number of steps the task carries.
func (p *pump) noteSubmitted(ev shardEvent) {
	if !p.hedging() || len(ev.refs) == 0 {
		return
	}
	now := p.s.clk.Now()
	p.taskRefs[ev.taskID] = ev.refs
	p.taskSubmitted[ev.taskID] = now
	for _, r := range ev.refs {
		key := stepKey{r.famID, r.step}
		p.stepTasks[key] = append(p.stepTasks[key], ev.taskID)
	}
	if ev.hedge {
		return // hedges are never themselves hedged
	}
	d := p.s.estimator.Deadline(ev.refs[0].step.Extractor, p.s.cfg.FaaS.HeartbeatTimeout)
	if d <= 0 {
		return
	}
	d *= time.Duration(len(ev.refs))
	p.hedgeTasks[ev.taskID] = ev.refs
	p.hedgeQ = append(p.hedgeQ, hedgeItem{at: now.Add(d), taskID: ev.taskID})
}

// intakeHedges fires expired hedge deadlines: every unfinished,
// not-yet-hedged step of a task still running past its deadline gets a
// speculative duplicate on another site.
func (p *pump) intakeHedges() bool {
	if !p.hedging() || len(p.hedgeQ) == 0 {
		return false
	}
	now := p.s.clk.Now()
	rest := p.hedgeQ[:0]
	progress := false
	for _, h := range p.hedgeQ {
		if h.at.After(now) {
			rest = append(rest, h)
			continue
		}
		refs, live := p.hedgeTasks[h.taskID]
		delete(p.hedgeTasks, h.taskID)
		if !live {
			continue // the task finished before its deadline
		}
		progress = true
		for _, r := range refs {
			key := stepKey{r.famID, r.step}
			if p.doneSteps[key] || p.hedgedSteps[key] {
				continue
			}
			st, ok := p.states[r.famID]
			if !ok {
				continue
			}
			p.hedgedSteps[key] = true
			p.dispatchHedge(st, r.step)
		}
	}
	p.hedgeQ = rest
	return progress
}

// hedgeTarget picks the site for a speculative duplicate: a different
// compute site that can run the extractor and whose circuit breaker
// admits new work (sites scanned in name order for determinism), else
// the origin site itself — a straggler is usually a property of the
// worker, not the step, so even a same-site duplicate tends to win.
func (p *pump) hedgeTarget(st *famState, extractor string) *Site {
	var cands []*Site
	p.s.mu.Lock()
	for name, site := range p.s.sites {
		if name != st.site.Name && site.HasCompute() {
			cands = append(cands, site)
		}
	}
	p.s.mu.Unlock()
	sort.Slice(cands, func(i, j int) bool { return cands[i].Name < cands[j].Name })
	for _, site := range cands {
		if _, err := p.s.functionFor(extractor, site.Name); err != nil {
			continue
		}
		if p.s.breakerFor(site.Name).Allow() {
			return site
		}
	}
	if p.s.breakerFor(st.site.Name).Allow() {
		return st.site
	}
	return nil
}

// dispatchHedge routes one speculative duplicate. On the origin site it
// reuses the family's effective paths; on an alternate site the worker
// fetches the original files from the family's home data layer over the
// transfer fabric (the same mechanism as direct-fetch placement), so a
// hedge needs no staging.
func (p *pump) dispatchHedge(st *famState, step scheduler.Step) {
	target := p.hedgeTarget(st, step.Extractor)
	if target == nil {
		return
	}
	sp := stepPayload{FamilyID: st.fam.ID, GroupID: step.GroupID}
	if target.Name == st.site.Name {
		sp.Files = p.groupFiles(st, step.GroupID)
		sp.FetchFrom = st.fetchFrom
	} else {
		files := make(map[string]string)
		for _, g := range st.fam.Groups {
			if g.ID != step.GroupID {
				continue
			}
			for _, f := range g.Files {
				files[f] = f
			}
		}
		sp.Files = files
		if target.Name != st.fam.Store {
			home, ok := p.s.Site(st.fam.Store)
			if !ok {
				return
			}
			sp.FetchFrom = home.TransferID
		}
	}
	if _, err := p.s.cfg.Tenants.AcquireTask(p.jobCtx, p.tenant); err != nil {
		return // job over; the controller reclaimed the slot internally
	}
	it := dispatchItem{extractor: step.Extractor, readyAt: p.s.clk.Now(), hedge: true, sp: sp}
	select {
	case p.shardFor(target).feed <- it:
		p.liveAttempts[stepKey{st.fam.ID, step}]++
		p.stepsHedged++
		p.s.obsHedges.Inc()
		p.s.obs.Emitf(p.jobID, obs.EvTaskHedged,
			"family=%s group=%s extractor=%s site=%s speculative duplicate",
			st.fam.ID, step.GroupID, step.Extractor, target.Name)
	case <-p.jobCtx.Done():
		p.s.cfg.Tenants.ReleaseTasks(p.tenant, 1)
	}
}

// cancelLosers cancels the other in-flight tasks carrying a step that
// just completed, freeing their workers early. A task is cancelled only
// when every step it carries is already done — cancelling a multi-step
// batch over one duplicate would kill innocent sibling steps.
func (p *pump) cancelLosers(key stepKey, winner string) {
	tids := p.stepTasks[key]
	if len(tids) == 0 {
		return
	}
	for _, tid := range tids {
		if tid == winner {
			continue
		}
		refs, live := p.taskRefs[tid]
		if !live {
			continue
		}
		all := true
		for _, r := range refs {
			if !p.doneSteps[stepKey{r.famID, r.step}] {
				all = false
				break
			}
		}
		if all && p.s.cfg.FaaS.CancelTask(tid) {
			p.s.obsHedgeCancelled.Inc()
		}
	}
	delete(p.stepTasks, key)
}

// shardFor returns (creating on first use) the dispatcher shard that
// owns the site's batching buckets and outstanding-task set.
func (p *pump) shardFor(site *Site) *dispatcher {
	if d, ok := p.shards[site.Name]; ok {
		return d
	}
	d := newDispatcher(p.s, p.jobID, p.tenant, site, p.events)
	p.shards[site.Name] = d
	p.shardWG.Add(1)
	go func() {
		defer p.shardWG.Done()
		d.run(p.jobCtx)
	}()
	return d
}

// dispatch routes one ready step to its site's shard. Fair-share
// admission happens here: the pump blocks until its tenant is granted a
// task slot (shards keep releasing slots independently, so a blocked
// pump starves no one but itself), then the send blocks only when the
// shard is feedDepth steps behind — back-pressure, bounded by the
// shard's own drain rate — and aborts if the job ends first. Every slot
// acquired here is released by the step's shard when its task reaches a
// terminal event (or by the shard's shutdown sweep).
func (p *pump) dispatch(st *famState, step scheduler.Step, files map[string]string) {
	waited, err := p.s.cfg.Tenants.AcquireTask(p.jobCtx, p.tenant)
	if err != nil {
		return // job over; the controller reclaimed the slot internally
	}
	if waited {
		p.s.obs.Emitf(p.jobID, obs.EvTenantThrottled,
			"tenant=%s family=%s group=%s extractor=%s waited for task slot",
			p.tenant, st.fam.ID, step.GroupID, step.Extractor)
	}
	it := dispatchItem{
		extractor: step.Extractor,
		readyAt:   p.s.clk.Now(),
		sp: stepPayload{
			FamilyID:  st.fam.ID,
			GroupID:   step.GroupID,
			Files:     files,
			FetchFrom: st.fetchFrom,
		},
	}
	select {
	case p.shardFor(st.site).feed <- it:
		if p.hedging() {
			p.liveAttempts[stepKey{st.fam.ID, step}]++
		}
	case <-p.jobCtx.Done():
		p.s.cfg.Tenants.ReleaseTasks(p.tenant, 1)
	}
}

// intakeStaged consumes prefetcher results and readies staged families.
// Results for families this pump is not staging belong to a concurrent
// job sharing the queue: they are made visible again (Nack), never
// deleted, and do not count as progress. A batch of only such foreign
// results closes the prefetch gate briefly — each Nack re-signals the
// queue's ready channel, and without the gate two staging jobs would
// ping-pong wakeups at full speed.
func (p *pump) intakeStaged() bool {
	if len(p.staging) == 0 || p.prefetchGate != nil {
		return false
	}
	msgs := p.s.cfg.PrefetchDone.Receive(64, 5*time.Minute)
	if len(msgs) == 0 {
		return false
	}
	progress := false
	acks := make([]string, 0, len(msgs))
	for _, m := range msgs {
		var res transfer.PrefetchResult
		if err := transfer.DecodePrefetchResult(m.Body, &res); err != nil {
			acks = append(acks, m.Receipt)
			progress = true
			continue
		}
		st, ok := p.staging[res.FamilyID]
		if !ok {
			_ = p.s.cfg.PrefetchDone.Nack(m.Receipt)
			continue
		}
		progress = true
		if res.OK {
			delete(p.staging, res.FamilyID)
			st.xferDur = res.Elapsed
			p.bytesStaged += res.Bytes
			p.s.cfg.Tenants.AddBytesStaged(p.tenant, res.Bytes)
			p.s.BytesStaged.Add(res.Bytes)
			p.s.obsBytesStaged.Add(float64(res.Bytes))
			p.s.obs.Emitf(p.jobID, obs.EvFamilyStaged, "family=%s bytes=%d elapsed=%s",
				res.FamilyID, res.Bytes, res.Elapsed)
			p.states[st.fam.ID] = st
			p.bucketReadySteps(st)
			p.finishIfDone(st)
		} else {
			p.retryStagingOrFail(st, "staging failed: "+res.Err)
		}
		acks = append(acks, m.Receipt)
	}
	p.s.cfg.PrefetchDone.DeleteBatch(acks)
	if !progress {
		p.prefetchGate = p.s.clk.After(2 * time.Millisecond)
	}
	return progress
}

// bucketReadySteps drains the family plan's pending steps toward the
// site's dispatcher shard, which owns per-extractor batching. Each
// first-attempt step is offered to the extraction result cache on the
// way: a hit completes the step in place — no shard, no FaaS task — and
// may unlock follow-on steps, which the loop then also drains.
func (p *pump) bucketReadySteps(st *famState) {
	for {
		step, ok := st.plan.Next()
		if !ok {
			return
		}
		if p.attempts[stepKey{st.fam.ID, step}] == 0 {
			if key, ok := p.stepCacheKey(st, step); ok {
				if md, hit := p.s.cfg.Cache.Get(key); hit {
					p.completeFromCache(st, step, md, key)
					continue
				}
				p.cacheMisses++
				p.s.obsCacheMisses.Inc()
				if st.cacheKeys == nil {
					st.cacheKeys = make(map[scheduler.Step]cache.Key)
				}
				st.cacheKeys[step] = key
			}
		}
		p.dispatch(st, step, p.groupFiles(st, step.GroupID))
	}
}

// stepCacheKey derives the cache key for one step from the group's
// crawl-time content fingerprints. ok is false — the step is uncacheable
// — when no cache is configured, the job opted out, or any group member
// lacks a content hash.
func (p *pump) stepCacheKey(st *famState, step scheduler.Step) (cache.Key, bool) {
	if p.s.cfg.Cache == nil || p.noCache {
		return cache.Key{}, false
	}
	var files []string
	for i := range st.fam.Groups {
		if g := &st.fam.Groups[i]; g.ID == step.GroupID {
			files = g.Files
			break
		}
	}
	fp, ok := cache.GroupFingerprint(files, func(f string) string { return st.fam.FileMeta[f].ContentHash })
	if !ok {
		return cache.Key{}, false
	}
	return cache.Key{
		ContentHash: fp,
		Extractor:   step.Extractor,
		Version:     p.s.extractorVersion(step.Extractor),
	}, true
}

// completeFromCache marks one step done with replayed metadata: the plan
// advances (including any schedule suggestions the metadata carries),
// the validation record gains a Cached provenance entry, and throughput
// counts the step — but no FaaS task is ever created.
func (p *pump) completeFromCache(st *famState, step scheduler.Step, md fastjson.Raw, key cache.Key) {
	st.steps = append(st.steps, validate.StepResult{
		GroupID: step.GroupID, Extractor: step.Extractor,
		OK: true, Cached: true,
	})
	st.plan.Complete(step, extractors.Suggestions(md))
	st.results[step.GroupID+"/"+step.Extractor] = md
	p.journalStepCompleted(st.fam.ID, step, md, key, true, true)
	p.stepsProcessed++
	p.cacheHits++
	p.s.cfg.Tenants.StepDone(p.tenant, 0, true)
	p.s.GroupsProcessed.Inc()
	p.s.obsGroupsProcessed.Inc()
	p.s.obsCacheHits.Inc()
	p.s.Throughput.Record(p.s.clk.Since(p.start), 1)
	p.s.obs.Emitf(p.jobID, obs.EvStepCacheHit,
		"family=%s group=%s extractor=%s replayed from cache",
		st.fam.ID, step.GroupID, step.Extractor)
}

// groupFiles resolves a group's effective file map at the execution site.
func (p *pump) groupFiles(st *famState, groupID string) map[string]string {
	out := make(map[string]string)
	for _, g := range st.fam.Groups {
		if g.ID != groupID {
			continue
		}
		for _, f := range g.Files {
			if eff, ok := st.pathMap[f]; ok {
				out[f] = eff
			} else {
				out[f] = f
			}
		}
	}
	return out
}

// handleTerminal resolves one finished/lost task against family plans.
// hedge marks the task as a speculative duplicate (its completions count
// as hedge wins when they claim steps first).
func (p *pump) handleTerminal(id string, info faas.TaskInfo, refs []stepRef, hedge bool) {
	touched := make(map[string]*famState)
	// perStepE2E is the task's submit→terminal latency split across its
	// steps — the span the hedge deadline is armed over, so queue wait at
	// the endpoint is priced into future deadlines. Zero when hedging is
	// off; the estimator then sees raw execution time (it has no consumer
	// in that mode).
	var perStepE2E time.Duration
	if p.hedging() {
		// The task is over: retire its attempts and drop its hedge
		// bookkeeping before the per-step resolution below consults them.
		if t0, ok := p.taskSubmitted[id]; ok && len(refs) > 0 {
			perStepE2E = p.s.clk.Now().Sub(t0) / time.Duration(len(refs))
		}
		delete(p.taskSubmitted, id)
		delete(p.hedgeTasks, id)
		delete(p.taskRefs, id)
		for _, r := range refs {
			p.attemptDone(stepKey{r.famID, r.step})
		}
	}

	switch info.Status {
	case faas.TaskSuccess:
		var result taskResult
		if err := decodeTaskResult(info.Result, &result); err != nil {
			for _, r := range refs {
				if p.stepMoot(stepKey{r.famID, r.step}) {
					continue
				}
				if st, ok := p.states[r.famID]; ok {
					p.retryOrDeadLetter(st, r.step, "bad_result", err.Error())
					touched[r.famID] = st
				}
			}
			p.s.obs.Emitf(p.jobID, obs.EvTaskFailed, "task=%s bad result payload", id)
			break
		}
		p.s.obs.Emitf(p.jobID, obs.EvTaskCompleted, "task=%s extractor=%s outcomes=%d",
			id, result.Extractor, len(result.Outcomes))
		for i, outc := range result.Outcomes {
			step := scheduler.Step{GroupID: outc.GroupID, Extractor: result.Extractor}
			if i < len(refs) {
				step = refs[i].step
			}
			fence := stepKey{outc.FamilyID, step}
			if p.hedging() && outc.OK && p.doneSteps[fence] {
				// Exactly-once fence: another attempt already claimed this
				// step, so every side effect — plan advance, cache
				// write-back, journal record, billing, stats — has run
				// exactly once. This duplicate is counted and discarded.
				p.duplicateSteps++
				p.s.obsHedgeFenced.Inc()
				continue
			}
			st, ok := p.states[outc.FamilyID]
			if !ok {
				continue
			}
			dur := time.Duration(outc.ExtractMS * float64(time.Millisecond))
			if outc.OK {
				if p.hedging() {
					p.doneSteps[fence] = true
					if hedge {
						p.hedgeWins++
						p.s.obsHedgeWins.Inc()
					}
					p.cancelLosers(fence, id)
				}
				if perStepE2E > 0 {
					p.s.estimator.Observe(step.Extractor, perStepE2E)
				} else {
					p.s.estimator.Observe(step.Extractor, dur)
				}
				st.steps = append(st.steps, validate.StepResult{
					GroupID: outc.GroupID, Extractor: step.Extractor,
					OK: true, Duration: dur,
				})
				st.plan.Complete(step, extractors.Suggestions(outc.Metadata))
				st.results[outc.GroupID+"/"+step.Extractor] = outc.Metadata
				// Remember the fresh result so a later run over identical
				// content replays it instead of re-extracting.
				key, cacheable := st.cacheKeys[step]
				if cacheable {
					p.s.cfg.Cache.PutRaw(key, outc.Metadata)
				}
				p.journalStepCompleted(st.fam.ID, step, outc.Metadata, key, cacheable, false)
				p.stepsProcessed++
				p.s.cfg.Tenants.StepDone(p.tenant, dur, false)
				p.s.GroupsProcessed.Inc()
				p.s.obsGroupsProcessed.Inc()
				p.s.Throughput.Record(p.s.clk.Since(p.start), 1)
				p.s.StepDurations.Observe(step.Extractor, dur)
				p.s.stepDurationHist(step.Extractor).ObserveDuration(dur)
				if st.staged {
					p.s.TransferDurations.Observe(step.Extractor, st.xferDur)
				}
			} else {
				if p.stepMoot(fence) {
					continue // a hedge attempt owns this step's fate
				}
				// The extractor ran and reported failure; retry in case the
				// fault was transient, then quarantine.
				p.retryOrDeadLetter(st, step, "step_error", outc.Err)
			}
			touched[outc.FamilyID] = st
		}
	case faas.TaskFailed:
		p.s.obs.Emitf(p.jobID, obs.EvTaskFailed, "task=%s steps=%d err=%s", id, len(refs), info.Err)
		for _, r := range refs {
			if p.stepMoot(stepKey{r.famID, r.step}) {
				continue // cancelled loser or covered by a live attempt
			}
			if st, ok := p.states[r.famID]; ok {
				p.retryOrDeadLetter(st, r.step, "failed", info.Err)
				touched[r.famID] = st
			}
		}
	case faas.TaskLost:
		// Allocation ended (Figure 8 restart): resubmit with bounded
		// retry so a permanently dead endpoint cannot loop forever.
		p.s.obs.Emitf(p.jobID, obs.EvTaskLost, "task=%s steps=%d", id, len(refs))
		requeued := 0
		for _, r := range refs {
			if p.stepMoot(stepKey{r.famID, r.step}) {
				continue
			}
			if st, ok := p.states[r.famID]; ok {
				if p.retryOrDeadLetter(st, r.step, "lost", info.Err) {
					requeued++
				}
				touched[r.famID] = st
			}
		}
		if requeued > 0 {
			p.tasksResubmitted++
			p.s.TasksResubmitted.Inc()
			p.s.obsTasksResubmitted.Inc()
			p.s.obs.Emitf(p.jobID, obs.EvTaskResubmitted, "task=%s steps=%d requeued after backoff", id, requeued)
		}
	}
	for _, st := range touched {
		p.bucketReadySteps(st) // suggestions and resets become new steps
		p.finishIfDone(st)
	}
}

// finishIfDone emits the validation record once a family's plan is empty.
// A family with quarantined steps fails instead: its metadata is
// incomplete and the job's dead-letter report is the audit trail.
func (p *pump) finishIfDone(st *famState) {
	if !st.plan.Done() {
		return
	}
	if _, live := p.states[st.fam.ID]; !live {
		return
	}
	delete(p.states, st.fam.ID)
	p.unstage(st)
	if st.deadLettered > 0 {
		stragglers := int64(p.s.cfg.StragglerBudget)
		if stragglers <= 0 || p.deadLettered > stragglers {
			p.failedFam++
			p.s.obsFamiliesFailed.Inc()
			p.s.obs.Emitf(p.jobID, obs.EvFamilyFailed,
				"family=%s failed: %d steps dead-lettered", st.fam.ID, st.deadLettered)
			return
		}
		// Inside the straggler budget: the family finishes degraded — its
		// validation record ships below with the dead-lettered steps
		// marked OK:false, preserving the partial metadata instead of
		// discarding the whole family.
		p.degradedFam++
		p.s.obs.Emitf(p.jobID, obs.EvFamilyDone,
			"family=%s degraded: %d steps dead-lettered within straggler budget",
			st.fam.ID, st.deadLettered)
	}
	files := make([]string, 0, len(st.fam.FileMeta))
	for f := range st.fam.FileMeta {
		files = append(files, f)
	}
	sort.Strings(files) // the same family writes the same document every run
	rec := validate.Record{
		JobID:     p.jobID,
		FamilyID:  st.fam.ID,
		Store:     st.fam.Store,
		BasePath:  st.fam.BasePath,
		Files:     files,
		Metadata:  st.results,
		Extracted: st.steps,
	}
	start := len(p.resultBuf)
	// The record splices metadata the worker already encoded (a dictionary
	// JSON cannot carry failed its step there), so nothing is left to fail.
	p.resultBuf, _ = validate.AppendRecord(p.resultBuf, &rec)
	p.pendingResults = append(p.pendingResults, p.resultBuf[start:])
	p.familiesDone++
	p.s.FamiliesDone.Inc()
	p.s.obsFamiliesDone.Inc()
	p.s.obs.Emitf(p.jobID, obs.EvFamilyDone, "family=%s steps=%d", st.fam.ID, len(st.steps))
}

// NewQueues is a convenience constructor for the four queues a service
// needs, named after their paper counterparts.
func NewQueues(clk clock.Clock) (families, prefetch, prefetchDone, results *queue.Queue) {
	return queue.New("crawl-families", clk),
		queue.New("prefetch-tasks", clk),
		queue.New("prefetch-done", clk),
		queue.New("validation-results", clk)
}

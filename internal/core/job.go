package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
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
// work — and is the one count of its event: the pump posts its growth to
// the service-lifetime xtract_* counters and the tenant's bill (post).
type JobStats struct {
	JobID          string
	Crawl          crawler.Stats
	FamiliesDone   int64
	FamiliesFailed int64
	// FamiliesDeadLettered: those of FamiliesFailed abandoned unplaced or
	// unstaged, each with a family dead letter on the job's record.
	FamiliesDeadLettered int64
	StepsProcessed       int64
	StepsFailed          int64
	TasksResubmitted     int64
	StepsRetried         int64
	StepsDeadLettered    int64
	BytesStaged          int64
	// ExtractorTime sums the run time of the steps extracted fresh.
	ExtractorTime time.Duration
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

// pumpCounts are the JobStats counts every pump posts to the process
// totals (Service.pumpTotals, in this order), each with its xtract_* series.
var pumpCounts = [...]struct {
	name, help string
	labels     map[string]string
	of         func(*JobStats) *int64
}{
	{"xtract_families_done_total", "Families whose extraction plans completed.", nil, func(s *JobStats) *int64 { return &s.FamiliesDone }},
	{"xtract_families_failed_total", "Families abandoned (no placement, staging failure, or capacity) or failed by their dead-lettered steps.",
		nil, func(s *JobStats) *int64 { return &s.FamiliesFailed }},
	{"xtract_groups_processed_total", "Group-extractor steps completed successfully.", nil, func(s *JobStats) *int64 { return &s.StepsProcessed }},
	{"xtract_steps_failed_total", "Group-extractor steps that failed.", nil, func(s *JobStats) *int64 { return &s.StepsFailed }},
	{"xtract_tasks_resubmitted_total", "FaaS tasks resubmitted after being lost.", nil, func(s *JobStats) *int64 { return &s.TasksResubmitted }},
	{"xtract_bytes_staged_total", "Bytes staged to remote compute sites by the prefetcher.", nil, func(s *JobStats) *int64 { return &s.BytesStaged }},
	{"xtract_hedges_total", "Duplicate step attempts dispatched after a task exceeded its adaptive deadline.",
		nil, func(s *JobStats) *int64 { return &s.StepsHedged }},
	{"xtract_hedge_wins_total", "Steps whose hedged duplicate finished before the original attempt.", nil, func(s *JobStats) *int64 { return &s.HedgeWins }},
	{"xtract_hedge_fenced_total", "Duplicate step completions discarded by the exactly-once fence.", nil, func(s *JobStats) *int64 { return &s.DuplicateSteps }},
	{"xtract_deadletter_total", deadLetterHelp, map[string]string{"kind": "family"}, func(s *JobStats) *int64 { return &s.FamiliesDeadLettered }},
	{"xtract_deadletter_total", deadLetterHelp, map[string]string{"kind": "step"}, func(s *JobStats) *int64 { return &s.StepsDeadLettered }},
}

const deadLetterHelp = "Steps quarantined after exhausting their retries, and families abandoned."

// Job is the service's handle on one job and, from submission until it
// leaves the finished table, its one record: its live-job table entry while
// it runs, its finished-table entry after.
type Job struct {
	ID     string             // as the journal knows it
	cancel context.CancelFunc // ends the job's context
	events *shardEventSink    // the pump's; staged results are routed to it
	// done closes once the job has ended and left the live table; stats and
	// err are what its run returned.
	done  chan struct{}
	stats JobStats
	err   error

	// mu guards rec. The pump is its only writer: its state and dead
	// letters as they change, its progress once a pump pass.
	mu  sync.Mutex
	rec registry.JobRecord
}

// Wait blocks until the job has ended and returns its stats and error.
func (j *Job) Wait() (JobStats, error) {
	<-j.done
	return j.stats, j.err
}

// Record returns a copy of the job's record as last published.
func (j *Job) Record() registry.JobRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec
}

// newRecord is a job's record as it starts: crawling, owned by the spec's
// tenant, over the spec's sites.
func newRecord(id string, spec journal.JobSpec, at time.Time) registry.JobRecord {
	rec := registry.JobRecord{ID: id, State: registry.JobCrawling, Tenant: spec.Tenant, Submitted: at}
	for _, r := range spec.Repos {
		rec.Repositories = append(rec.Repositories, r.Site)
	}
	return rec
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
	rec := newRecord(s.jobs.mint(), spec, s.clk.Now())
	jobID := rec.ID
	if s.cfg.Cluster != nil {
		// Ownership lease before the submission record: a peer's failover
		// scan sees the job in the journal's live fold only after the
		// lease already guards it, so a just-submitted job can never be
		// adopted out from under its submitter. (Lease records for a job
		// the fold does not know yet are skipped on replay — harmless.)
		// Fresh IDs are node-unique, so acquisition can only fail on a
		// coordination-layer fault. A refused job leaves nothing behind:
		// no record of it exists yet.
		if err := s.cfg.Cluster.AcquireJob(jobID); err != nil {
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
	s.obs.Emit(jobID, obs.EvJobSubmitted, "repositories="+strings.Join(rec.Repositories, ","))
	j := s.runJob(ctx, rec, spec, groupers, submitted)
	if err = ticket.Wait(); err != nil {
		s.obsJournalErrors.Inc() // durability degraded, not correctness: see journalAppend
	}
	if submitted != nil && !errors.Is(err, journal.ErrKilled) {
		close(submitted) // a killed journal is a dead process: its gate stays shut
	}
	return j, nil
}

// runJob is the shared back half of submission, recovery and failover
// adoption (the last two with an open, nil, gate): it enters the job, its
// record starting as rec, into the live-job table and runs it on a
// goroutine and a context of its own.
func (s *Service) runJob(ctx context.Context, rec registry.JobRecord, spec journal.JobSpec,
	groupers []crawler.GroupingFunc, submitted <-chan struct{}) *Job {
	p := newPump(s, rec, spec.NoCache, submitted)
	j := p.job
	j.done = make(chan struct{})
	p.jobCtx, j.cancel = context.WithCancel(ctx)
	s.jobs.enter(j)
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
	// JobStarted consumes the admission reservation taken at the API
	// front door (or a fresh slot for direct/recovered callers); the
	// deferred JobEnded releases it whichever way the job exits.
	s.cfg.Tenants.JobStarted(p.tenant)
	defer s.cfg.Tenants.JobEnded(p.tenant)
	defer p.teardown(cancelJob)
	// Every exit posts, the fenced and draining ones that publish nothing
	// included, so what a reader sees in the totals and on the bill after
	// Wait does not rest on which publish ran last.
	defer p.post()
	err := p.startCrawls(repos, groupers)
	if err == nil {
		p.publish(registry.JobExtracting, "")
		err = p.loop(p.jobCtx)
	}
	p.Elapsed = s.clk.Since(p.start)
	if err != nil {
		p.fail(err)
		return p.JobStats, err
	}
	return p.conclude(), nil
}

// publish makes the job's progress readable: on its record, under the
// job's own lock, and in the totals and on the bill (post). Once a pump
// pass, and with each change of state (when state is set). A crawl's
// Stats arrive when it ends, its families before that: while one runs,
// the groups crawled are those whose families reached the pump, so a step
// done never outruns its group's count.
func (p *pump) publish(state registry.JobState, errMsg string) {
	crawled := p.Crawl.GroupsFormed
	if p.crawlsPending > 0 {
		crawled = p.groupsTaken
	}
	j := p.job
	j.mu.Lock()
	if state != "" {
		j.rec.State, j.rec.Err = state, errMsg
	}
	j.rec.GroupsCrawled, j.rec.GroupsDone = crawled, p.StepsProcessed
	j.mu.Unlock()
	p.post()
}

// post hands what the pump has counted since its last post to the two
// wider scopes: the process totals /metrics reads and the owning tenant's
// bill, in one controller call. What has not grown is not posted.
func (p *pump) post() {
	now, was := &p.JobStats, &p.posted
	for i, c := range pumpCounts[:] {
		if d := *c.of(now) - *c.of(was); d != 0 {
			p.s.pumpTotals[i].Add(d)
		}
	}
	bill := tenant.Usage{StepsProcessed: now.StepsProcessed - was.StepsProcessed, StepsFailed: now.StepsFailed - was.StepsFailed,
		CacheHits: now.CacheHits - was.CacheHits, BytesStaged: now.BytesStaged - was.BytesStaged,
		ExtractorSeconds: (now.ExtractorTime - was.ExtractorTime).Seconds()}
	if bill != (tenant.Usage{}) {
		p.s.cfg.Tenants.Charge(p.tenant, bill)
	}
	p.posted = *now
}

// addDeadLetter notes one quarantine on the job's record.
func (p *pump) addDeadLetter(dl registry.DeadLetter) {
	p.job.mu.Lock()
	defer p.job.mu.Unlock()
	p.job.rec.AddDeadLetter(dl)
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
			s.obs.Emitf(p.JobID, obs.EvCrawlFinished, "site=%s files=%d families=%d hashed=%d reused=%d fingerprint_errors=%d",
				spec.Site, stats.FilesSeen, stats.FamiliesEmitted,
				stats.FilesHashed, stats.HashesReused, stats.FingerprintErrors)
			p.crawlDone <- stats
		}(spec)
	}
	return nil
}

// finishedJobs bounds the finished table: the newest jobs to end, whose
// handles answer with their stats. An older one answers from the journal's
// fold, without them, or not at all without a journal.
const finishedJobs = 256

// jobTable is the service's one table of jobs. runJob enters a job before
// its goroutine starts and that goroutine moves it to the finished table
// after teardown, on every exit; Cancel, Job and every pump's intakeStaged
// look live jobs up in it, LookupJob and JobRecords every job. It owns no
// liveness scanner: the fabric's endpoints find dead peers themselves.
type jobTable struct {
	mu   sync.Mutex
	live map[string]*Job
	// finished holds the newest jobs to end, oldest first: at most keep of
	// them (finishedJobs; a test may shrink it).
	finished []*Job
	keep     int
	// seq numbers the jobs this service mints, after prefix: "job-", or
	// "job-<node>-" on a cluster node.
	seq    int
	prefix string
	strays atomic.Int64 // staged results no family was waiting for
}

// mint returns a new job ID: "job-<n>", or "job-<node>-<n>" on a cluster
// node, so that nodes sharing a journal never collide.
func (t *jobTable) mint() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	return t.prefix + strconv.Itoa(t.seq)
}

// advance moves the counter past a journaled ID of this service's form, so
// that jobs minted after recovery never collide with recovered ones.
func (t *jobTable) advance(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if rest, ok := strings.CutPrefix(id, t.prefix); ok {
		if n, err := strconv.Atoi(rest); err == nil && n > t.seq {
			t.seq = n
		}
	}
}

// MintingNode extracts the node identity embedded in a job ID a cluster
// node minted ("job-<node>-<seq>"); it is empty for single-node IDs
// ("job-<seq>").
func MintingNode(jobID string) string {
	rest, ok := strings.CutPrefix(jobID, "job-")
	if !ok {
		return ""
	}
	i := strings.LastIndexByte(rest, '-')
	if i <= 0 {
		return ""
	}
	return rest[:i]
}

// enter adds j to the live map.
func (t *jobTable) enter(j *Job) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.live[j.ID] = j
}

// leave moves j from the live map to the finished table, evicting the
// oldest finished job past the bound. What is left in j's event sink goes:
// the job reads it no more.
func (t *jobTable) leave(j *Job) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.live[j.ID] != j {
		return
	}
	delete(t.live, j.ID)
	j.events.drain()
	if t.finished = append(t.finished, j); len(t.finished) > t.keep {
		t.finished[0] = nil
		t.finished = t.finished[1:]
	}
}

// Job returns the live job with this ID, or nil.
func (s *Service) Job(id string) *Job {
	s.jobs.mu.Lock()
	defer s.jobs.mu.Unlock()
	return s.jobs.live[id]
}

// Cancel ends a live job's context (see fail) and reports if it was live.
func (s *Service) Cancel(id string) bool {
	j := s.Job(id)
	if j != nil {
		j.cancel()
	}
	return j != nil
}

// JobView is what the service answers for one job.
type JobView struct {
	Record registry.JobRecord
	// Complete reports that the job has ended. Stats and Err are what its
	// run returned, while its handle is in the finished table; a job
	// answered from the journal's fold has no stats, and Err is its
	// terminal record's.
	Complete bool
	Stats    *JobStats
	Err      string
}

// LookupJob answers for one job: from its handle while it runs and once it
// has ended here, else from the journal's fold. A finished job whose record
// is not terminal ended without a terminal record here — its lease moved,
// or the service is draining — so the fold, when it knows the job, answers.
// ok is false for a job neither knows.
func (s *Service) LookupJob(id string) (JobView, bool) {
	s.jobs.mu.Lock()
	j, live := s.jobs.live[id]
	for i := len(s.jobs.finished) - 1; i >= 0 && j == nil; i-- { // newest first
		if s.jobs.finished[i].ID == id {
			j = s.jobs.finished[i]
		}
	}
	s.jobs.mu.Unlock()
	var v JobView
	if j != nil {
		v = JobView{Record: j.Record(), Complete: !live}
		if live {
			return v, true
		}
	}
	if s.cfg.Journal != nil && !v.Record.State.Terminal() {
		if js, ok := s.cfg.Journal.JobSnapshot(id); ok {
			return JobView{Record: s.foldRecord(js), Complete: js.Terminal, Err: js.Err}, true
		}
	}
	if j == nil {
		return v, false
	}
	stats := j.stats
	v.Stats = &stats
	if j.err != nil {
		v.Err = j.err.Error()
	}
	return v, true
}

// JobRecords lists the record of every job LookupJob answers for — live,
// in the finished table, in the journal's fold — by submission time, then
// ID.
func (s *Service) JobRecords() []registry.JobRecord {
	var ids []string
	if s.cfg.Journal != nil {
		ids = s.cfg.Journal.JobIDs()
	}
	s.jobs.mu.Lock()
	for id := range s.jobs.live {
		ids = append(ids, id)
	}
	for _, j := range s.jobs.finished {
		ids = append(ids, j.ID)
	}
	s.jobs.mu.Unlock()
	slices.Sort(ids)
	out := make([]registry.JobRecord, 0, len(ids))
	for _, id := range slices.Compact(ids) {
		if v, ok := s.LookupJob(id); ok {
			out = append(out, v.Record)
		}
	}
	slices.SortStableFunc(out, func(a, b registry.JobRecord) int { return a.Submitted.Compare(b.Submitted) })
	return out
}

// foldRecord is a journaled job's record as the fold tells it: no
// progress, the state its terminal record gave or, for one still running
// elsewhere or awaiting adoption, EXTRACTING. It is flagged recovered when
// the job was journaled before this process opened the journal.
func (s *Service) foldRecord(js *journal.JobState) registry.JobRecord {
	var spec journal.JobSpec
	if js.Spec != nil {
		spec = *js.Spec
	}
	// Pre-tenancy logs have no tenant: the job is the default tenant's.
	spec.Tenant = tenant.Normalize(spec.Tenant)
	at, _ := time.Parse(time.RFC3339Nano, js.Submitted)
	rec := newRecord(js.ID, spec, at)
	rec.State, rec.Err, rec.DeadLetters = registry.JobExtracting, js.Err, js.DeadLetters
	if js.Terminal {
		rec.State = registry.JobState(js.State)
	}
	_, rec.Recovered = s.cfg.Journal.Recovered().Jobs[js.ID]
	return rec
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
	s.endJob(p.JobID, p.tenant, state, errMsg)
	p.publish(state, errMsg)
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

// fail records a job's end after an error: CANCELLED when the context was
// cancelled (the DELETE /jobs/{id} path), FAILED otherwise. During a
// graceful shutdown the cancellation is the restart itself, so nothing
// terminal is recorded — the journal keeps the job live and recovery
// resumes it.
func (p *pump) fail(err error) {
	s := p.s
	if s.cfg.Cluster != nil && !s.cfg.Cluster.HoldsLive(p.JobID) && !s.draining.Load() {
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
	s.endJob(p.JobID, p.tenant, state, err.Error())
	p.publish(state, err.Error())
	s.obs.Emit(p.JobID, event, err.Error())
}

// endJob journals a job's terminal state, durable before visible: a client
// that reads it finds it after a crash (a journal device error degrades
// exactly that, nothing else). A cancellation has a record type of its own
// — a restarted service must not resurrect a job the user cancelled. ten
// is the owning tenant for outcome accounting; a job with a handle
// publishes the state on its record after this.
func (s *Service) endJob(jobID, ten string, state registry.JobState, errMsg string) {
	rec := journal.Record{Type: journal.RecJobTerminal, JobID: jobID, State: string(state), Err: errMsg}
	if state == registry.JobCancelled {
		rec = journal.Record{Type: journal.RecJobCancelled, JobID: jobID, Err: errMsg}
	}
	s.journalAppend(rec)
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

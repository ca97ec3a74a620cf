// Package core implements the Xtract service: the orchestrator that
// receives extraction jobs, invokes the crawler, builds dynamic
// extraction plans for file families, places each family on a compute
// site (local or offloaded), stages files through the prefetcher when
// needed, batches extractor invocations at two levels (Xtract batches and
// funcX batches), polls the FaaS fabric for results, resumes lost tasks
// from the result cache their workers wrote, and forwards finished
// metadata records to the validation queue (paper §4).
package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xtract/internal/cache"
	"xtract/internal/clock"
	"xtract/internal/cluster"
	"xtract/internal/crawler"
	"xtract/internal/extractors"
	"xtract/internal/faas"
	"xtract/internal/journal"
	"xtract/internal/obs"
	"xtract/internal/queue"
	"xtract/internal/registry"
	"xtract/internal/scheduler"
	"xtract/internal/store"
	"xtract/internal/tenant"
	"xtract/internal/transfer"
)

// Site is one Xtract endpoint: a data layer (store + transfer endpoint)
// and, optionally, a compute layer (a FaaS endpoint with workers).
type Site struct {
	// Name identifies the site ("theta", "midway", "petrel", ...).
	Name string
	// Store is the site's data layer.
	Store store.Store
	// TransferID is the site's endpoint ID in the transfer fabric.
	TransferID string
	// Compute is the site's FaaS endpoint; nil for storage-only sites.
	Compute *faas.Endpoint
	// StagePath is the directory staged (prefetched) files land in.
	StagePath string
	// DeleteStaged removes a family's staged files once its last step has
	// ended (the family_batch.delete_files flag of Listing 1).
	DeleteStaged bool
	// DirectFetch makes workers at this site download remote files
	// per-file through the transfer fabric at extraction time instead of
	// batch-prefetching them — the Globus-HTTPS / Drive-API download
	// path the paper uses for River pods without a shared file system.
	DirectFetch bool
	// ExcludeExtractors lists extractor names whose containers cannot
	// run at this site (e.g., Docker-only extractors on Singularity-only
	// systems); they are not registered here.
	ExcludeExtractors []string
	// StageCapacityBytes bounds how much data may be staged to this site
	// (Listing 2's available_gb); 0 means unlimited. A family's bytes are
	// reserved at placement and returned when DeleteStaged removes its
	// copies; without DeleteStaged the copies stay, and so does the
	// reservation.
	StageCapacityBytes int64

	// mu guards Compute once the site is registered (jobs read the
	// endpoint while Service.SwapCompute may replace it after an
	// allocation loss) and stagedBytes, which every job's pump updates.
	mu          sync.Mutex
	stagedBytes int64 // reserved staging bytes
}

// ComputeEndpoint returns the site's current compute endpoint (nil for
// storage-only sites). Use this instead of reading Compute directly once
// the site is registered.
func (s *Site) ComputeEndpoint() *faas.Endpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Compute
}

// setCompute replaces the site's compute endpoint.
func (s *Site) setCompute(ep *faas.Endpoint) {
	s.mu.Lock()
	s.Compute = ep
	s.mu.Unlock()
}

// reserveStage reserves n staging bytes, reporting whether they fit.
func (s *Site) reserveStage(n int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.StageCapacityBytes > 0 && s.stagedBytes+n > s.StageCapacityBytes {
		return false
	}
	s.stagedBytes += n
	return true
}

// releaseStage returns n reserved staging bytes to the budget.
func (s *Site) releaseStage(n int64) {
	s.mu.Lock()
	s.stagedBytes -= n
	s.mu.Unlock()
}

// excludes reports whether the site cannot run the named extractor.
func (s *Site) excludes(name string) bool {
	for _, e := range s.ExcludeExtractors {
		if e == name {
			return true
		}
	}
	return false
}

// HasCompute reports whether the site can execute extractors.
func (s *Site) HasCompute() bool { return s.ComputeEndpoint() != nil }

// state returns the scheduler's placement snapshot.
func (s *Site) state() scheduler.SiteState {
	ep := s.ComputeEndpoint()
	st := scheduler.SiteState{Name: s.Name, HasCompute: ep != nil}
	if ep != nil {
		st.Workers = ep.Workers
		st.QueueDepth = ep.QueueDepth()
	}
	return st
}

// Config wires the Xtract service to its substrates.
type Config struct {
	Clock   clock.Clock
	FaaS    *faas.Service
	Fabric  *transfer.Fabric
	Library *extractors.Library
	// PrefetchQueue / PrefetchDone connect to the prefetcher.
	PrefetchQueue *queue.Queue
	PrefetchDone  *queue.Queue
	// ResultQueue receives validate.Record JSON for finished families.
	ResultQueue *queue.Queue
	// Policy decides task placement; nil means LocalPolicy.
	Policy scheduler.Policy
	// XtractBatchSize is how many plan steps ride in one FaaS task.
	XtractBatchSize int
	// FuncXBatchSize is how many FaaS tasks ride in one submit call.
	FuncXBatchSize int
	// Obs is the runtime observability layer (nil disables live metrics
	// and per-job event traces at near-zero cost).
	Obs *obs.Observer
	// Retry bounds per-step retry/backoff and the per-job retry budget
	// applied to lost and failed extraction steps; zero fields take the
	// DefaultRetryPolicy values.
	Retry RetryPolicy
	// ExtractFaults, when set, injects extractor failures and panics into
	// step execution (chaos testing; internal/faultinject satisfies it).
	ExtractFaults extractors.FaultHook
	// Cache, when set, is the extraction result cache keyed by (group
	// content hash, extractor, extractor version): steps whose key hits
	// replay validated metadata instead of dispatching a FaaS task, and
	// the worker that extracts a step writes its result. Configuring a
	// cache also turns on crawl-time content fingerprinting for jobs (see
	// crawler.Crawler.Fingerprint); a job spec's NoCache opts out.
	Cache *cache.Cache
	// Journal, when set, is the durable write-ahead log the service
	// appends at every job state transition; Recover replays it after a
	// restart. Nil disables durability (pure in-memory operation).
	Journal *journal.Journal
	// Tenants, when set, enforces per-tenant rate limits, job quotas,
	// and weighted fair-share task admission, and keeps per-tenant cost
	// accounting. Nil disables tenancy (single-user operation).
	Tenants *tenant.Controller
	// Cluster, when set, is this node's handle on the multi-node
	// coordination layer: jobs run under a renewable ownership lease,
	// and journal appends for jobs this node no longer owns are fenced
	// (dropped and counted) instead of written. Nil disables clustering
	// (single-node operation).
	Cluster *cluster.Node
	// Hedge configures hedged speculative execution: tasks exceeding
	// their extractor's adaptive deadline are duplicated to another site,
	// first result wins. Disabled by default.
	Hedge HedgePolicy
	// Breakers configures per-site circuit breakers over task outcomes.
	// Disabled by default.
	Breakers BreakerPolicy
	// Shed configures overload shedding at the API front door (consulted
	// via ShedCheck). Off by default: the zero policy sets no watermark.
	Shed ShedPolicy
	// StragglerBudget, when positive, lets a job finish DEGRADED with
	// partial results when at most this many steps dead-lettered (and no
	// family failed outright for placement/staging reasons) instead of
	// failing the whole job. Zero keeps the strict FAILED semantics.
	StragglerBudget int
}

// ShedPolicy configures overload shedding: when either watermark is
// crossed, new job submissions are refused with 503 + Retry-After
// instead of admitted into a pipeline that cannot serve them. A watermark
// that is set is the switch; the zero policy never sheds.
type ShedPolicy struct {
	// MaxQueueDepth sheds when the summed compute-endpoint queue depth
	// reaches this many tasks (0 = no queue-depth watermark).
	MaxQueueDepth int
	// SlotHighWatermark sheds when the global in-flight task slots in use
	// reach this fraction of the tenant controller's TaskSlots budget
	// (0 = no slot watermark; needs a controller with TaskSlots set).
	SlotHighWatermark float64
	// RetryAfter is the hint returned with the 503 (default 1s).
	RetryAfter time.Duration
}

// Service is the Xtract orchestrator.
type Service struct {
	cfg Config
	clk clock.Clock

	mu sync.Mutex
	// sites are the registered sites in name order, the one order every
	// scan of them takes. AddSite publishes a new list, never writes one.
	sites []*Site
	// functions maps (extractor, site) to the registered FaaS function ID.
	functions map[[2]string]string
	// containerOf maps container name to its registered ID.
	containerOf map[string]string

	// retry is cfg.Retry with defaults applied.
	retry RetryPolicy
	// hedge is cfg.Hedge with defaults applied; estimator is the shared
	// per-extractor runtime estimator behind its adaptive deadlines (nil
	// when hedging is off — deadlines then fall back to the heartbeat
	// timeout).
	hedge     HedgePolicy
	estimator *latencyEstimator
	// breakers holds one circuit breaker per site (lazily created; all
	// nil when cfg.Breakers is disabled).
	breakerPol BreakerPolicy
	breakerMu  sync.Mutex
	breakers   map[string]*breaker

	// crawlTotals sums every job's crawls and pumpTotals what every job's
	// pump has posted: the process-wide counters, read at scrape time.
	crawlTotals crawler.Totals
	pumpTotals  [len(pumpCounts)]atomic.Int64

	// Live observability handles resolved from cfg.Obs (nil-safe).
	obs                *obs.Observer
	obsRetryBackoff    *obs.Histogram
	obsBudgetExhausted *obs.Counter
	obsStepDuration    *obs.HistogramVec
	obsDispatchLatency *obs.Histogram
	obsPipelineDepth   *obs.Gauge
	obsJournalErrors   *obs.Counter
	obsJournalFsync    *obs.Histogram
	obsRecoveredJobs   *obs.CounterVec
	obsRecoverySeconds *obs.Histogram
	obsClusterFenced   *obs.Counter
	obsHedgeCancelled  *obs.Counter
	obsShedTotal       *obs.Counter

	// Labelled counters on hot paths: the pump and dispatcher emit
	// millions of events per run, so their known label values
	// are resolved to series handles once at construction instead of
	// re-resolving a *Vec.With per event (see labelledCounter).
	obsWakeups   labelledCounter // by wakeup reason
	obsRetries   labelledCounter // by failure cause
	obsJobs      labelledCounter // by terminal registry.JobState
	obsStepDurBy sync.Map        // extractor name -> *obs.Histogram

	// draining is set by BeginShutdown: job contexts are about to be
	// cancelled for a restart, so the cancellations must not be journaled
	// as user cancels (the jobs should resume on recovery).
	draining atomic.Bool

	jobs jobTable // the live-job table

	// recovery guards the one-shot Recover pass and its published status.
	recoveryMu sync.Mutex
	recovery   RecoveryStatus
}

// New constructs the service. Call AddSite and RegisterExtractors before
// running jobs.
func New(cfg Config) *Service {
	if cfg.Policy == nil {
		cfg.Policy = scheduler.LocalPolicy{}
	}
	if cfg.XtractBatchSize < 1 {
		cfg.XtractBatchSize = 8
	}
	if cfg.FuncXBatchSize < 1 {
		cfg.FuncXBatchSize = 16
	}
	s := &Service{
		cfg:         cfg,
		clk:         cfg.Clock,
		functions:   make(map[[2]string]string),
		containerOf: make(map[string]string),
		obs:         cfg.Obs,
		retry:       cfg.Retry.withDefaults(),
		hedge:       cfg.Hedge.withDefaults(),
		breakerPol:  cfg.Breakers.withDefaults(),
		breakers:    make(map[string]*breaker),
	}
	s.jobs.live, s.jobs.keep = make(map[string]*Job), finishedJobs
	s.jobs.prefix = "job-"
	if cfg.Cluster != nil {
		s.jobs.prefix = "job-" + cfg.Cluster.ID() + "-"
	}
	if s.hedge.Enabled {
		s.estimator = newLatencyEstimator(s.hedge)
	}
	s.instrument(cfg.Obs.Reg())
	if cfg.Journal != nil {
		cfg.Journal.Observe(s.obsJournalFsync.ObserveDuration)
	}
	return s
}

// instrument registers the service's metric families on reg and keeps
// their handles.
func (s *Service) instrument(reg *obs.Registry) {
	for _, c := range []struct {
		h          **obs.Counter
		name, help string
	}{
		{&s.obsBudgetExhausted, "xtract_retry_budget_exhausted_total", "Retries denied because the per-job retry budget was spent."},
		{&s.obsJournalErrors, "xtract_journal_append_errors_total", "Journal appends that failed (the transition proceeded un-journaled)."},
		{&s.obsClusterFenced, "xtract_cluster_fenced_appends_total", "Journal appends dropped because this node's job lease was lost."},
		{&s.obsHedgeCancelled, "xtract_hedge_cancelled_total", "Losing attempts cancelled after a sibling completed first."},
		{&s.obsShedTotal, "xtract_shed_total", "Job submissions refused by overload shedding (503 + Retry-After)."},
	} {
		*c.h = reg.Counter(c.name, c.help)
	}
	s.obsRetryBackoff = reg.Histogram("xtract_retry_backoff_seconds", "Backoff delays scheduled before step retries.", nil)
	s.obsDispatchLatency = reg.Histogram("xtract_dispatch_latency_seconds",
		"Time from a step becoming dispatch-ready to its FaaS batch submission.", nil)
	s.obsJournalFsync = reg.Histogram("xtract_journal_fsync_seconds", "Journal group-commit fsync batch durations.", nil)
	s.obsRecoverySeconds = reg.Histogram("xtract_recovery_seconds",
		"Wall time of the journal recovery pass (replay through resume).", nil)
	s.obsPipelineDepth = reg.Gauge("xtract_pipeline_depth", "FaaS tasks in flight across all dispatcher shards.")
	s.obsStepDuration = reg.HistogramVec("xtract_step_duration_seconds",
		"Extractor execution time per step.", nil, "extractor")
	s.obsRecoveredJobs = reg.CounterVec("xtract_recovery_jobs_total",
		"Jobs restored from the journal at startup, by disposition.", "disposition")
	s.obsJobs = newLabelledCounter(reg.CounterVec("xtract_jobs_total",
		"Extraction jobs by terminal state.", "state"),
		string(registry.JobCrawling), string(registry.JobExtracting), string(registry.JobComplete),
		string(registry.JobFailed), string(registry.JobCancelled), string(registry.JobDegraded))
	s.obsRetries = newLabelledCounter(reg.CounterVec("xtract_retry_total",
		"Step retries scheduled, by failure cause.", "reason"),
		"lost", "failed", "staging", "step_error", "bad_result", "no_function")
	s.obsWakeups = newLabelledCounter(reg.CounterVec("xtract_pump_wakeups_total",
		"Orchestration-loop wakeups by triggering event source.", "reason"),
		"start", "crawl", "families", "staged", "events", "retry", "hedge", "durable", "idle")
	s.instrumentOwned(reg)
}

// instrumentOwned exposes the counts their owners keep, read at scrape
// time: the summed crawls' and pumps', the result cache's, the journal's,
// the recovery pass's and the live-job table's.
func (s *Service) instrumentOwned(reg *obs.Registry) {
	for i, c := range pumpCounts {
		reg.CounterFunc(c.name, c.help, c.labels, s.pumpTotals[i].Load)
	}
	ct := &s.crawlTotals
	for _, c := range []struct {
		name, help string
		read       func() int64
	}{
		{"xtract_crawl_dirs_listed_total", "Directories listed by crawlers.", ct.DirsListed.Load},
		{"xtract_crawl_files_seen_total", "Files seen by crawlers.", ct.FilesSeen.Load},
		{"xtract_crawl_groups_formed_total", "File groups formed by crawlers.", ct.GroupsFormed.Load},
		{"xtract_crawl_families_emitted_total", "Families emitted onto the family queue by crawlers.", ct.FamiliesEmitted.Load},
		{"xtract_crawl_bytes_seen_total", "File bytes discovered by crawlers.", ct.BytesSeen.Load},
		{"xtract_crawl_list_errors_total", "Directory listings that failed during crawls.", ct.ListErrors.Load},
		{"xtract_crawl_fingerprint_reads_total", "Files crawlers read and hashed for their content fingerprint.", ct.FilesHashed.Load},
		{"xtract_crawl_fingerprint_reused_total", "Files whose remembered fingerprint the store's change token vouched for, unread.", ct.HashesReused.Load},
		{"xtract_crawl_fingerprint_errors_total", "Fingerprint reads that failed, leaving the file's groups uncacheable.", ct.FingerprintErrors.Load},
		{"xtract_cache_hits_total", "Extraction steps answered by the result cache (no FaaS dispatch).", func() int64 { return s.cfg.Cache.Stats().Hits }},
		{"xtract_cache_misses_total", "Result cache lookups answered by neither cache layer.", func() int64 { return s.cfg.Cache.Stats().Misses }},
		{"xtract_cache_evictions_total", "Result cache entries displaced by the in-memory LRU bound.", func() int64 { return s.cfg.Cache.Stats().Evictions }},
		{"xtract_recovery_steps_reconciled_total", "Journaled step completions seeded into the result cache at recovery.",
			func() int64 { st, _ := s.LastRecovery(); return int64(st.StepsReconciled) }},
	} {
		reg.CounterFunc(c.name, c.help, nil, c.read)
	}
	for _, typ := range []string{journal.RecJobSubmitted, journal.RecFamilyEnqueued,
		journal.RecStepCompleted, journal.RecStepRetried, journal.RecStepDeadLettered,
		journal.RecFamilyFailed, journal.RecJobCancelled, journal.RecJobTerminal,
		journal.RecLeaseAcquired, journal.RecLeaseRenewed, journal.RecLeaseReleased} {
		reg.CounterFunc("xtract_journal_appends_total", "Durable journal appends by record type.",
			map[string]string{"type": typ}, func() int64 { return s.cfg.Journal.Appends(typ) })
	}
	reg.GaugeFunc("xtract_jobs_active", "Extraction jobs currently running.", nil, func() float64 {
		s.jobs.mu.Lock()
		defer s.jobs.mu.Unlock()
		return float64(len(s.jobs.live))
	})
}

// breakerFor returns (lazily creating) the site's circuit breaker; nil
// when breakers are disabled. First use registers the site's
// xtract_breaker_state gauge.
func (s *Service) breakerFor(site string) *breaker {
	if !s.breakerPol.Enabled {
		return nil
	}
	s.breakerMu.Lock()
	b, ok := s.breakers[site]
	if !ok {
		b = newBreaker(s.breakerPol, s.clk)
		s.breakers[site] = b
		s.cfg.Obs.Reg().GaugeFunc("xtract_breaker_state",
			"Per-site circuit breaker state (0 closed, 1 half-open, 2 open).",
			map[string]string{"site": site},
			func() float64 { return float64(b.State()) })
	}
	s.breakerMu.Unlock()
	return b
}

// recordSiteOutcome feeds one terminal task into the site's breaker.
// Cancelled hedge losers are skipped: the kill is ours, not the site's.
func (s *Service) recordSiteOutcome(site string, info faas.TaskInfo) {
	if !s.breakerPol.Enabled {
		return
	}
	if info.Status == faas.TaskFailed && info.Err == errTaskCancelledText {
		return
	}
	s.breakerFor(site).Record(info.Status == faas.TaskSuccess)
}

// errTaskCancelledText is the fabric's cancellation error string,
// resolved once — hot paths compare against it instead of allocating.
var errTaskCancelledText = faas.ErrTaskCancelled.Error()

// ShedCheck reports whether a new job submission should be refused for
// overload, and the Retry-After hint to return with the 503. Consulted
// by the API front door before tenant admission.
func (s *Service) ShedCheck() (time.Duration, bool) {
	pol := s.cfg.Shed
	retry := pol.RetryAfter
	if retry <= 0 {
		retry = time.Second
	}
	if pol.SlotHighWatermark > 0 {
		if used, total := s.cfg.Tenants.SlotPressure(); total > 0 &&
			float64(used) >= pol.SlotHighWatermark*float64(total) {
			s.obsShedTotal.Inc()
			return retry, true
		}
	}
	if pol.MaxQueueDepth > 0 {
		depth := 0
		for _, site := range s.siteList() {
			if ep := site.ComputeEndpoint(); ep != nil {
				depth += ep.QueueDepth()
			}
		}
		if depth >= pol.MaxQueueDepth {
			s.obsShedTotal.Inc()
			return retry, true
		}
	}
	return 0, false
}

// labelledCounter is a one-label counter family with the series of its
// known label values resolved ahead of time; with falls back to the
// family's own (allocating) lookup for a value nobody listed.
type labelledCounter struct {
	vec *obs.CounterVec
	by  map[string]*obs.Counter
}

func newLabelledCounter(vec *obs.CounterVec, known ...string) labelledCounter {
	c := labelledCounter{vec: vec, by: make(map[string]*obs.Counter, len(known))}
	for _, v := range known {
		c.by[v] = vec.With(v)
	}
	return c
}

func (c labelledCounter) with(value string) *obs.Counter {
	if h, ok := c.by[value]; ok {
		return h
	}
	return c.vec.With(value)
}

// stepDurationHist returns the cached per-extractor step-duration
// histogram, resolving and caching it on first use (extractor names are
// not known at construction time).
func (s *Service) stepDurationHist(extractor string) *obs.Histogram {
	if h, ok := s.obsStepDurBy.Load(extractor); ok {
		return h.(*obs.Histogram)
	}
	h := s.obsStepDuration.With(extractor)
	actual, _ := s.obsStepDurBy.LoadOrStore(extractor, h)
	return actual.(*obs.Histogram)
}

// journalAppend writes one record to the configured journal and waits for
// it to be durable.
func (s *Service) journalAppend(rec journal.Record) {
	s.journalWrite(rec, (*journal.Journal).Append)
}

// journalWrite is the one way a record reaches the journal, by Append or
// AppendAsync. Nil-safe: a service without a journal skips it at near-zero
// cost. Errors are counted, not fatal — the in-memory transition already
// happened, and a full disk must degrade durability, not correctness.
func (s *Service) journalWrite(rec journal.Record, write func(*journal.Journal, journal.Record) error) {
	if s.cfg.Journal == nil || s.fenced(rec) {
		return
	}
	if err := write(s.cfg.Journal, rec); err != nil {
		s.obsJournalErrors.Inc()
	}
}

// fenced reports whether rec must be dropped because this node's lease
// on the record's job is no longer live — the write-side half of
// split-brain protection: a node that lost a job to a peer cannot
// corrupt the job's journaled history with late appends. (Submission and
// lease records do not come this way.)
func (s *Service) fenced(rec journal.Record) bool {
	if s.cfg.Cluster == nil || rec.JobID == "" {
		return false
	}
	if s.cfg.Cluster.HoldsLive(rec.JobID) {
		return false
	}
	s.obsClusterFenced.Inc()
	return true
}

// BeginShutdown marks the service as draining for a graceful stop: job
// contexts cancelled from here on are treated as a restart in progress —
// their jobs are NOT journaled as cancelled or failed, so recovery
// resumes them — and new journal appends for terminal states are
// suppressed. Call it before cancelling the deployment context.
func (s *Service) BeginShutdown() { s.draining.Store(true) }

// JournalEnabled reports whether a durable journal is configured.
func (s *Service) JournalEnabled() bool { return s.cfg.Journal != nil }

// CacheStats snapshots the extraction result cache; ok is false when no
// cache is configured.
func (s *Service) CacheStats() (stats cache.Stats, ok bool) {
	if s.cfg.Cache == nil {
		return cache.Stats{}, false
	}
	return s.cfg.Cache.Stats(), true
}

// extractorVersion resolves an extractor's cache-version stamp through
// the library; unknown extractors get the default stamp (their steps can
// only hit entries written under the same default).
func (s *Service) extractorVersion(name string) string {
	ext, err := s.cfg.Library.Get(name)
	if err != nil {
		return extractors.DefaultVersion
	}
	return extractors.VersionOf(ext)
}

// AddSite registers an endpoint with the service. The site's store name
// must equal the name crawled families carry.
func (s *Service) AddSite(site *Site) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sites := slices.DeleteFunc(slices.Clone(s.sites), func(o *Site) bool { return o.Name == site.Name })
	i, _ := slices.BinarySearchFunc(sites, site.Name, func(o *Site, name string) int { return strings.Compare(o.Name, name) })
	s.sites = slices.Insert(sites, i, site)
}

// siteList returns the registered sites in name order.
func (s *Service) siteList() []*Site {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sites
}

// Site returns a registered site.
func (s *Service) Site(name string) (*Site, bool) {
	for _, site := range s.siteList() {
		if site.Name == name {
			return site, true
		}
	}
	return nil, false
}

// Sites lists registered site names, sorted.
func (s *Service) Sites() []string {
	sites := s.siteList()
	out := make([]string, len(sites))
	for i, site := range sites {
		out[i] = site.Name
	}
	return out
}

// RegisterExtractors registers every library extractor as a FaaS
// function (one per compute site, closing over that site's data layer)
// and records the address tuples in the registry — the paper's
// function:container:endpoint registration flow.
func (s *Service) RegisterExtractors() error {
	sites := s.siteList()
	for _, name := range s.cfg.Library.Names() {
		ext, err := s.cfg.Library.Get(name)
		if err != nil {
			return err
		}
		containerName := ext.Container()
		s.mu.Lock()
		cid, ok := s.containerOf[containerName]
		if !ok {
			cid = s.cfg.FaaS.RegisterContainer(containerName, 0)
			s.containerOf[containerName] = cid
		}
		s.mu.Unlock()

		for _, site := range sites {
			ep := site.ComputeEndpoint()
			if ep == nil || site.excludes(name) {
				continue
			}
			handler := s.makeHandler(site, ext)
			fid, err := s.cfg.FaaS.RegisterFunction(
				fmt.Sprintf("%s@%s", name, site.Name), handler, cid)
			if err != nil {
				return err
			}
			s.mu.Lock()
			s.functions[[2]string{name, site.Name}] = fid
			s.mu.Unlock()
		}
	}
	return nil
}

// SwapCompute replaces a site's compute endpoint, e.g. after its
// allocation was lost and a replacement was provisioned. The new endpoint
// must already be registered and started on the FaaS service; call
// RegisterExtractors again afterwards so extractor functions resolve to
// it. Safe to call while jobs are running — in-flight tasks on the old
// endpoint surface as LOST and are retried onto the new one.
func (s *Service) SwapCompute(siteName string, ep *faas.Endpoint) error {
	site, ok := s.Site(siteName)
	if !ok {
		return fmt.Errorf("core: unknown site %q", siteName)
	}
	site.setCompute(ep)
	return nil
}

// functionFor resolves the FaaS function for an extractor at a site.
func (s *Service) functionFor(extractor, site string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fid, ok := s.functions[[2]string{extractor, site}]
	if !ok {
		return "", fmt.Errorf("core: extractor %s not registered at site %s", extractor, site)
	}
	return fid, nil
}

// Package tenant is the multi-tenant isolation layer: it derives a
// stable tenant ID from an auth identity, enforces per-tenant submit
// rate limits (token bucket) and concurrent-job quotas at the service
// front door, arbitrates the global in-flight task budget with weighted
// fair queueing at dispatch time, and keeps per-tenant cost accounting
// (tasks, bytes staged, extractor-seconds, cache hits) for the
// GET /api/v1/tenants/{id}/usage endpoint and the xtract_tenant_*
// metrics. A nil *Controller disables every check at near-zero cost, so
// single-user deployments pay nothing.
package tenant

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"xtract/internal/clock"
	"xtract/internal/obs"
)

// Default is the tenant every anonymous or auth-less request maps to.
const Default = "default"

// Normalize canonicalizes a tenant ID: identities are case-insensitive
// and an empty identity (auth disabled, legacy job records) is the
// default tenant.
func Normalize(id string) string {
	id = strings.ToLower(strings.TrimSpace(id))
	if id == "" {
		return Default
	}
	return id
}

// FromIdentity derives the tenant ID for an authenticated identity —
// today the normalized identity itself; a stand-in for the Globus Auth
// identity→project mapping a production deployment would consult.
func FromIdentity(identity string) string { return Normalize(identity) }

// Limits bounds one tenant. Zero fields mean "unlimited" so the zero
// value is a fully open tenant.
type Limits struct {
	// SubmitRate refills the job-submission token bucket, in jobs per
	// second (0 = no rate limit).
	SubmitRate float64 `json:"submit_rate,omitempty"`
	// SubmitBurst is the bucket capacity (defaults to 1 when a rate is
	// set).
	SubmitBurst int `json:"submit_burst,omitempty"`
	// MaxActiveJobs bounds concurrently admitted-or-running jobs.
	MaxActiveJobs int `json:"max_active_jobs,omitempty"`
	// MaxInFlightTasks bounds this tenant's dispatched-but-unfinished
	// FaaS tasks regardless of global slot availability.
	MaxInFlightTasks int `json:"max_inflight_tasks,omitempty"`
	// Weight is the fair-share weight (default 1): a weight-2 tenant
	// receives twice the task slots of a weight-1 tenant under
	// contention.
	Weight int `json:"weight,omitempty"`
}

// weight returns the effective fair-share weight.
func (l Limits) weight() float64 {
	if l.Weight < 1 {
		return 1
	}
	return float64(l.Weight)
}

// burst returns the effective token-bucket capacity.
func (l Limits) burst() float64 {
	if l.SubmitBurst < 1 {
		return 1
	}
	return float64(l.SubmitBurst)
}

// Config wires a Controller.
type Config struct {
	// Clock drives bucket refill; nil selects the wall clock.
	Clock clock.Clock
	// Defaults applies to every tenant without an override.
	Defaults Limits
	// Overrides maps normalized tenant IDs to their specific limits.
	Overrides map[string]Limits
	// TaskSlots is the global in-flight task budget shared by all
	// tenants (0 = unlimited; per-tenant MaxInFlightTasks still applies).
	TaskSlots int
}

// Usage is one tenant's cumulative cost accounting.
type Usage struct {
	JobsStarted   int64 `json:"jobs_started"`
	JobsCompleted int64 `json:"jobs_completed"`
	JobsFailed    int64 `json:"jobs_failed"`
	JobsCancelled int64 `json:"jobs_cancelled"`
	// JobsDegraded counts jobs that finished with partial results under
	// the straggler budget.
	JobsDegraded int64 `json:"jobs_degraded,omitempty"`
	ActiveJobs   int   `json:"active_jobs"`
	// TasksDispatched counts fair-share task-slot grants (FaaS dispatch
	// admissions); InFlightTasks is the live slot count.
	TasksDispatched int64 `json:"tasks_dispatched"`
	InFlightTasks   int   `json:"inflight_tasks"`
	StepsProcessed  int64 `json:"steps_processed"`
	StepsFailed     int64 `json:"steps_failed"`
	CacheHits       int64 `json:"cache_hits"`
	BytesStaged     int64 `json:"bytes_staged"`
	// ExtractorSeconds is summed extractor execution time — the
	// compute-cost half of the usage bill.
	ExtractorSeconds float64 `json:"extractor_seconds"`
	// Throttled counts admissions delayed or refused (rate limit, job
	// quota, or a fair-share wait behind another tenant's tasks).
	Throttled int64 `json:"throttled"`
}

// Add accumulates o into u — cross-node usage aggregation sums each
// node's local bill into the tenant's global one.
func (u *Usage) Add(o Usage) {
	u.JobsStarted += o.JobsStarted
	u.JobsCompleted += o.JobsCompleted
	u.JobsFailed += o.JobsFailed
	u.JobsCancelled += o.JobsCancelled
	u.JobsDegraded += o.JobsDegraded
	u.ActiveJobs += o.ActiveJobs
	u.TasksDispatched += o.TasksDispatched
	u.InFlightTasks += o.InFlightTasks
	u.StepsProcessed += o.StepsProcessed
	u.StepsFailed += o.StepsFailed
	u.CacheHits += o.CacheHits
	u.BytesStaged += o.BytesStaged
	u.ExtractorSeconds += o.ExtractorSeconds
	u.Throttled += o.Throttled
}

// Snapshot pairs a tenant's usage with its effective limits.
type Snapshot struct {
	Tenant string `json:"tenant"`
	Usage  Usage  `json:"usage"`
	Limits Limits `json:"limits"`
}

// QuotaError is a typed admission refusal carrying the client's
// Retry-After hint.
type QuotaError struct {
	Tenant string
	// Reason is "rate" (token bucket empty) or "jobs" (concurrent-job
	// quota exhausted).
	Reason     string
	RetryAfter time.Duration
}

// Error implements the error interface.
func (e *QuotaError) Error() string {
	if e.Reason == "rate" {
		return fmt.Sprintf("tenant %s: submit rate limit exceeded (retry in %s)", e.Tenant, e.RetryAfter)
	}
	return fmt.Sprintf("tenant %s: concurrent job quota exhausted (retry in %s)", e.Tenant, e.RetryAfter)
}

// state is one tenant's live accounting. Guarded by Controller.mu.
type state struct {
	id  string
	lim Limits

	// Token bucket for job submissions.
	tokens   float64
	lastFill time.Time

	// active counts admitted-or-running jobs; pendingStart is the subset
	// admitted via AdmitJob whose pump has not started yet (the
	// reservation JobStarted consumes instead of taking a fresh slot).
	active       int
	pendingStart int

	// Fair-share state: inflight task slots held, waiters queued, and
	// the stride-scheduling virtual time (pass) — lowest pass is served
	// next; each grant advances pass by 1/weight.
	inflight int
	waiting  int
	pass     float64

	usage Usage

	// Cached metric handles, resolved once per tenant instead of per
	// event: AcquireTask/ReleaseTasks run on the dispatch hot path, so a
	// *Vec.With per grant would re-resolve the label on every task. All
	// obs handles are nil-safe, so these stay nil until Instrument.
	mTasks     *obs.Counter
	mInflight  *obs.Gauge
	mActive    *obs.Gauge
	mSteps     *obs.Counter
	mStepsFail *obs.Counter
	mCacheHits *obs.Counter
	mBytes     *obs.Counter
	mExtract   *obs.Counter
	mThrotRate *obs.Counter
	mThrotJobs *obs.Counter
	mThrotFair *obs.Counter
}

// Controller enforces tenant quotas and fair-share admission. All
// methods are safe for concurrent use and nil-safe: a nil *Controller
// admits everything and accounts nothing.
type Controller struct {
	clk clock.Clock
	cfg Config

	mu      sync.Mutex
	tenants map[string]*state
	waiters []*waiter
	// peerActive, when set (cluster mode), reports a tenant's active
	// jobs on every other node so MaxActiveJobs stays a global quota.
	// It is called with c.mu dropped: the reporter takes peer
	// controllers' locks.
	peerActive func(id string) int
	// inflight is the global task-slot count; vtime tracks the pass of
	// the last grant so reactivating tenants cannot claim credit for
	// time they spent idle.
	inflight int
	vtime    float64

	// Metrics (nil until Instrument; obs types are nil-safe).
	obsJobs      *obs.CounterVec
	obsActive    *obs.GaugeVec
	obsTasks     *obs.CounterVec
	obsInflight  *obs.GaugeVec
	obsSteps     *obs.CounterVec
	obsStepsFail *obs.CounterVec
	obsCacheHits *obs.CounterVec
	obsBytes     *obs.CounterVec
	obsExtract   *obs.CounterVec
	obsThrottled *obs.CounterVec
}

// NewController returns a controller enforcing cfg.
func NewController(cfg Config) *Controller {
	clk := cfg.Clock
	if clk == nil {
		clk = clock.NewReal()
	}
	return &Controller{
		clk:     clk,
		cfg:     cfg,
		tenants: make(map[string]*state),
	}
}

// Instrument registers the xtract_tenant_* metric families on reg and
// re-resolves the cached handles of any tenants seen before
// instrumentation.
func (c *Controller) Instrument(reg *obs.Registry) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.obsJobs = reg.CounterVec("xtract_tenant_jobs_total",
		"Jobs by tenant and terminal state.", "tenant", "state")
	c.obsActive = reg.GaugeVec("xtract_tenant_jobs_active",
		"Admitted-or-running jobs per tenant.", "tenant")
	c.obsTasks = reg.CounterVec("xtract_tenant_tasks_total",
		"Fair-share task-slot grants per tenant.", "tenant")
	c.obsInflight = reg.GaugeVec("xtract_tenant_tasks_inflight",
		"Task slots currently held per tenant.", "tenant")
	c.obsSteps = reg.CounterVec("xtract_tenant_steps_total",
		"Extraction steps completed per tenant.", "tenant")
	c.obsStepsFail = reg.CounterVec("xtract_tenant_steps_failed_total",
		"Extraction steps dead-lettered per tenant.", "tenant")
	c.obsCacheHits = reg.CounterVec("xtract_tenant_cache_hits_total",
		"Steps served from the result cache per tenant.", "tenant")
	c.obsBytes = reg.CounterVec("xtract_tenant_bytes_staged_total",
		"Bytes staged to compute sites per tenant.", "tenant")
	c.obsExtract = reg.CounterVec("xtract_tenant_extractor_seconds_total",
		"Extractor execution seconds billed per tenant.", "tenant")
	c.obsThrottled = reg.CounterVec("xtract_tenant_throttled_total",
		"Admissions delayed or refused, by tenant and reason.", "tenant", "reason")
	for _, t := range c.tenants {
		c.resolveHandlesLocked(t)
	}
}

// resolveHandlesLocked caches t's per-tenant metric handles so hot-path
// accounting emits without a label lookup.
func (c *Controller) resolveHandlesLocked(t *state) {
	t.mTasks = c.obsTasks.With(t.id)
	t.mInflight = c.obsInflight.With(t.id)
	t.mActive = c.obsActive.With(t.id)
	t.mSteps = c.obsSteps.With(t.id)
	t.mStepsFail = c.obsStepsFail.With(t.id)
	t.mCacheHits = c.obsCacheHits.With(t.id)
	t.mBytes = c.obsBytes.With(t.id)
	t.mExtract = c.obsExtract.With(t.id)
	t.mThrotRate = c.obsThrottled.With(t.id, "rate")
	t.mThrotJobs = c.obsThrottled.With(t.id, "jobs")
	t.mThrotFair = c.obsThrottled.With(t.id, "fairshare")
}

// stateLocked returns (creating on first use) the tenant's state.
func (c *Controller) stateLocked(id string) *state {
	t, ok := c.tenants[id]
	if !ok {
		lim := c.cfg.Defaults
		if o, ok := c.cfg.Overrides[id]; ok {
			lim = o
		}
		t = &state{
			id:       id,
			lim:      lim,
			tokens:   lim.burst(), // bucket starts full
			lastFill: c.clk.Now(),
		}
		c.resolveHandlesLocked(t)
		c.tenants[id] = t
	}
	return t
}

// refillLocked advances the tenant's token bucket to now.
func (t *state) refillLocked(now time.Time) {
	if t.lim.SubmitRate <= 0 {
		return
	}
	elapsed := now.Sub(t.lastFill).Seconds()
	if elapsed > 0 {
		t.tokens += elapsed * t.lim.SubmitRate
		if b := t.lim.burst(); t.tokens > b {
			t.tokens = b
		}
	}
	t.lastFill = now
}

// SetPeerActive installs the cross-node active-job reporter (cluster
// mode): AdmitJob adds its count to the local one so MaxActiveJobs is
// enforced cluster-wide. The reporter must not call back into this
// controller.
func (c *Controller) SetPeerActive(fn func(id string) int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.peerActive = fn
}

// AdmitJob checks a job submission against the tenant's rate limit and
// concurrent-job quota, reserving an active-job slot on success (the
// reservation is consumed by the pump's JobStarted). Refusals are typed
// *QuotaError values carrying a Retry-After hint.
func (c *Controller) AdmitJob(id string) error {
	if c == nil {
		return nil
	}
	id = Normalize(id)
	// Peer usage is gathered before taking c.mu: the reporter walks
	// other nodes' controllers, and nesting their locks under ours would
	// deadlock two nodes admitting concurrently.
	peer := 0
	c.mu.Lock()
	peerFn := c.peerActive
	c.mu.Unlock()
	if peerFn != nil {
		peer = peerFn(id)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.stateLocked(id)
	t.refillLocked(c.clk.Now())
	if t.lim.SubmitRate > 0 && t.tokens < 1 {
		retry := time.Duration((1 - t.tokens) / t.lim.SubmitRate * float64(time.Second))
		if retry < time.Second {
			retry = time.Second
		}
		t.usage.Throttled++
		t.mThrotRate.Inc()
		return &QuotaError{Tenant: id, Reason: "rate", RetryAfter: retry}
	}
	if t.lim.MaxActiveJobs > 0 && t.active+peer >= t.lim.MaxActiveJobs {
		t.usage.Throttled++
		t.mThrotJobs.Inc()
		return &QuotaError{Tenant: id, Reason: "jobs", RetryAfter: time.Second}
	}
	if t.lim.SubmitRate > 0 {
		t.tokens--
	}
	t.active++
	t.pendingStart++
	t.usage.ActiveJobs = t.active
	t.mActive.Set(float64(t.active))
	return nil
}

// JobStarted records a pump actually starting: it consumes a pending
// AdmitJob reservation when one exists, or takes a fresh active slot
// unconditionally — direct Service callers and journal-recovered jobs
// were never admitted through the front door but still count toward the
// tenant's concurrency.
func (c *Controller) JobStarted(id string) {
	if c == nil {
		return
	}
	id = Normalize(id)
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.stateLocked(id)
	if t.pendingStart > 0 {
		t.pendingStart--
	} else {
		t.active++
	}
	t.usage.JobsStarted++
	t.usage.ActiveJobs = t.active
	t.mActive.Set(float64(t.active))
}

// JobEnded releases the active-job slot taken by JobStarted.
func (c *Controller) JobEnded(id string) {
	if c == nil {
		return
	}
	id = Normalize(id)
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.stateLocked(id)
	if t.active > 0 {
		t.active--
	}
	t.usage.ActiveJobs = t.active
	t.mActive.Set(float64(t.active))
}

// JobOutcome records a job's terminal state ("COMPLETE", "DEGRADED",
// "FAILED", "CANCELLED") for the tenant's bill and the per-tenant jobs
// metric.
func (c *Controller) JobOutcome(id, jobState string) {
	if c == nil {
		return
	}
	id = Normalize(id)
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.stateLocked(id)
	switch jobState {
	case "COMPLETE":
		t.usage.JobsCompleted++
	case "DEGRADED":
		t.usage.JobsDegraded++
	case "CANCELLED":
		t.usage.JobsCancelled++
	default:
		t.usage.JobsFailed++
	}
	c.obsJobs.With(id, strings.ToLower(jobState)).Inc()
}

// StepDone bills one completed extraction step: execution time for
// fresh extractions, a cache-hit count for replayed ones.
func (c *Controller) StepDone(id string, dur time.Duration, cached bool) {
	if c == nil {
		return
	}
	id = Normalize(id)
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.stateLocked(id)
	t.usage.StepsProcessed++
	t.mSteps.Inc()
	if cached {
		t.usage.CacheHits++
		t.mCacheHits.Inc()
		return
	}
	t.usage.ExtractorSeconds += dur.Seconds()
	t.mExtract.Add(dur.Seconds())
}

// StepFailed bills one dead-lettered step.
func (c *Controller) StepFailed(id string) {
	if c == nil {
		return
	}
	id = Normalize(id)
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.stateLocked(id)
	t.usage.StepsFailed++
	t.mStepsFail.Inc()
}

// AddBytesStaged bills prefetcher transfer volume.
func (c *Controller) AddBytesStaged(id string, n int64) {
	if c == nil || n <= 0 {
		return
	}
	id = Normalize(id)
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.stateLocked(id)
	t.usage.BytesStaged += n
	t.mBytes.Add(float64(n))
}

// SlotPressure reports the global in-flight task-slot usage against the
// configured TaskSlots budget — the overload-shedding watermark input.
// A nil controller (or an unlimited budget) reports zero capacity, which
// disables the slot watermark.
func (c *Controller) SlotPressure() (inflight, slots int) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inflight, c.cfg.TaskSlots
}

// UsageFor snapshots one tenant's usage; ok is false for a tenant the
// controller has never seen.
func (c *Controller) UsageFor(id string) (Usage, bool) {
	if c == nil {
		return Usage{}, false
	}
	id = Normalize(id)
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tenants[id]
	if !ok {
		return Usage{}, false
	}
	u := t.usage
	u.InFlightTasks = t.inflight
	return u, true
}

// LimitsFor reports the effective limits for a tenant.
func (c *Controller) LimitsFor(id string) Limits {
	if c == nil {
		return Limits{}
	}
	id = Normalize(id)
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stateLocked(id).lim
}

// Snapshots lists every known tenant's usage and limits, sorted by
// tenant ID.
func (c *Controller) Snapshots() []Snapshot {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Snapshot, 0, len(c.tenants))
	for _, t := range c.tenants {
		u := t.usage
		u.InFlightTasks = t.inflight
		out = append(out, Snapshot{Tenant: t.id, Usage: u, Limits: t.lim})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

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

// Normalize canonicalizes a tenant ID and derives one from an auth
// identity (where production would map a Globus identity to a project):
// identities are case-insensitive, and an empty one (auth disabled,
// legacy job records) is the default tenant.
func Normalize(id string) string {
	id = strings.ToLower(strings.TrimSpace(id))
	if id == "" {
		return Default
	}
	return id
}

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

// Usage is one tenant's cumulative cost accounting. ActiveJobs,
// InFlightTasks and Throttled are read from the controller's own counts
// when the bill is taken.
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

	// active counts the tenant's jobs from admission (or recovery) to end.
	active int

	// Fair-share state: inflight task slots held, waiters queued, and
	// the stride-scheduling virtual time (pass) — lowest pass is served
	// next; each grant advances pass by 1/weight.
	inflight int
	waiting  int
	pass     float64

	// usage is the bill and the one count of each of its events, but for
	// the three fields bill fills in: active jobs and held slots are
	// active and inflight, and throttles are counted per reason.
	usage     Usage
	throttled [len(throttleReasons)]int64
}

// Throttle reasons, indexing state.throttled: a submission over the rate
// limit or the job quota, a task slot waited for behind another tenant.
const (
	throttleRate = iota
	throttleJobs
	throttleFair
)

var throttleReasons = [...]string{"rate", "jobs", "fairshare"}

// bill is the tenant's usage as read.
func (t *state) bill() Usage {
	u := t.usage
	u.ActiveJobs, u.InFlightTasks = t.active, t.inflight
	for _, n := range t.throttled {
		u.Throttled += n
	}
	return u
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

	// reg, once Instrument has set it, exposes each tenant's bill.
	reg *obs.Registry
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

// Instrument exposes every tenant's bill on reg as the xtract_tenant_*
// families, read at scrape time under the controller's lock. A tenant's
// series are registered once, when it is first seen (those seen before
// Instrument, now).
func (c *Controller) Instrument(reg *obs.Registry) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reg = reg
	for _, t := range c.tenants {
		c.exposeLocked(t)
	}
}

// exposeLocked registers t's series on the instrumented registry. Each
// reads its count where t keeps it, under the controller's lock.
func (c *Controller) exposeLocked(t *state) {
	if c.reg == nil {
		return
	}
	read := func(f func() float64) func() float64 {
		return func() float64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return f()
		}
	}
	count := func(n *int64) func() float64 { return read(func() float64 { return float64(*n) }) }
	ten, u := [2]string{"tenant", t.id}, &t.usage
	for _, f := range []struct {
		name, help string
		n          *int64
	}{
		{"xtract_tenant_tasks_total", "Fair-share task-slot grants per tenant.", &u.TasksDispatched},
		{"xtract_tenant_steps_total", "Extraction steps completed per tenant.", &u.StepsProcessed},
		{"xtract_tenant_steps_failed_total", "Extraction steps dead-lettered per tenant.", &u.StepsFailed},
		{"xtract_tenant_cache_hits_total", "Steps served from the result cache per tenant.", &u.CacheHits},
		{"xtract_tenant_bytes_staged_total", "Bytes staged to compute sites per tenant.", &u.BytesStaged},
	} {
		c.reg.FloatCounterFunc(f.name, f.help, count(f.n), ten)
	}
	c.reg.FloatCounterFunc("xtract_tenant_extractor_seconds_total", "Extractor execution seconds billed per tenant.",
		read(func() float64 { return u.ExtractorSeconds }), ten)
	for _, j := range []struct {
		state string
		n     *int64
	}{{"complete", &u.JobsCompleted}, {"degraded", &u.JobsDegraded}, {"failed", &u.JobsFailed}, {"cancelled", &u.JobsCancelled}} {
		c.reg.FloatCounterFunc("xtract_tenant_jobs_total", "Jobs by tenant and terminal state.",
			count(j.n), ten, [2]string{"state", j.state})
	}
	for i, reason := range throttleReasons {
		c.reg.FloatCounterFunc("xtract_tenant_throttled_total", "Admissions delayed or refused, by tenant and reason.",
			count(&t.throttled[i]), ten, [2]string{"reason", reason})
	}
	only := map[string]string{"tenant": t.id}
	c.reg.GaugeFunc("xtract_tenant_jobs_active", "Admitted-or-running jobs per tenant.", only,
		read(func() float64 { return float64(t.active) }))
	c.reg.GaugeFunc("xtract_tenant_tasks_inflight", "Task slots currently held per tenant.", only,
		read(func() float64 { return float64(t.inflight) }))
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
		c.tenants[id] = t
		c.exposeLocked(t)
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
// concurrent-job quota and, when it passes, takes the job's active slot;
// JobEnded gives the slot back. The job is counted started by CountStart
// once it runs, so a submission refused after admission leaves no start
// on the bill. Refusals are typed *QuotaError values carrying a
// Retry-After hint.
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
		t.throttled[throttleRate]++
		return &QuotaError{Tenant: id, Reason: "rate", RetryAfter: retry}
	}
	if t.lim.MaxActiveJobs > 0 && t.active+peer >= t.lim.MaxActiveJobs {
		t.throttled[throttleJobs]++
		return &QuotaError{Tenant: id, Reason: "jobs", RetryAfter: time.Second}
	}
	if t.lim.SubmitRate > 0 {
		t.tokens--
	}
	t.active++
	return nil
}

// JobStarted takes an active slot, unchecked, for a job admitted in an
// earlier life: one recovered from the journal or adopted from a failed
// peer. It counts toward the tenant's quota like an admitted job, and is
// counted started.
func (c *Controller) JobStarted(id string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.stateLocked(Normalize(id))
	t.active++
	t.usage.JobsStarted++
}

// CountStart counts a job started without touching its slot: an admitted
// submission once it runs, or a journaled job that recovery fails before
// it can run, billed beside its FAILED outcome.
func (c *Controller) CountStart(id string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stateLocked(Normalize(id)).usage.JobsStarted++
}

// ReturnStart takes back the start counted for a job this node lost to a
// peer: the peer counts it started when it adopts it.
func (c *Controller) ReturnStart(id string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stateLocked(Normalize(id)).usage.JobsStarted--
}

// JobEnded releases the active-job slot AdmitJob or JobStarted took.
func (c *Controller) JobEnded(id string) {
	if c == nil {
		return
	}
	id = Normalize(id)
	c.mu.Lock()
	defer c.mu.Unlock()
	if t := c.stateLocked(id); t.active > 0 {
		t.active--
	}
}

// JobOutcome records a job's terminal state ("COMPLETE", "DEGRADED",
// "FAILED", "CANCELLED") on the tenant's bill.
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
}

// Charge adds u's steps, failed steps, cache hits, bytes staged and
// extractor seconds to the tenant's bill, under one lock: a job's pump
// posts what it counted since its last post, once a pass.
func (c *Controller) Charge(id string, u Usage) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	b := &c.stateLocked(Normalize(id)).usage
	b.StepsProcessed += u.StepsProcessed
	b.StepsFailed += u.StepsFailed
	b.CacheHits += u.CacheHits
	b.BytesStaged += u.BytesStaged
	b.ExtractorSeconds += u.ExtractorSeconds
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
	return t.bill(), true
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
		out = append(out, Snapshot{Tenant: t.id, Usage: t.bill(), Limits: t.lim})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

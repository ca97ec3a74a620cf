package obs

import (
	"fmt"
	"sync"
	"time"

	"xtract/internal/clock"
)

// Event type names emitted along the job hot path, in lifecycle order.
// The tracer accepts arbitrary strings; these constants keep producers
// and the API documentation in sync.
const (
	EvJobSubmitted     = "job_submitted"
	EvCrawlStarted     = "crawl_started"
	EvCrawlFinished    = "crawl_finished"
	EvFamilyEnqueued   = "family_enqueued"
	EvFamilyStaging    = "family_staging"
	EvFamilyStaged     = "family_staged"
	EvBatchDispatched  = "batch_dispatched"
	EvStepCacheHit     = "step_cache_hit"
	EvTaskCompleted    = "task_completed"
	EvTaskFailed       = "task_failed"
	EvTaskLost         = "task_lost"
	EvTaskResubmitted  = "task_resubmitted"
	EvTaskRetried      = "task_retried"
	EvTaskDeadLettered = "task_dead_lettered"
	// EvTaskHedged marks a speculative duplicate dispatched for a step
	// running past its extractor's latency estimate (detail names the
	// target site).
	EvTaskHedged      = "task_hedged"
	EvFamilyDone      = "family_done"
	EvFamilyFailed    = "family_failed"
	EvFamilyValidated = "family_validated"
	EvJobCompleted    = "job_completed"
	EvJobFailed       = "job_failed"
	EvJobCancelled    = "job_cancelled"
	// EvJobRecovered marks a job restored from the durable journal after a
	// service restart, before its pump resumes.
	EvJobRecovered = "job_recovered"
	// EvTenantThrottled marks a dispatch that had to wait for a
	// fair-share task slot (detail names the tenant).
	EvTenantThrottled = "tenant_throttled"
)

// Event is one entry in a job's trace.
type Event struct {
	// Seq is a tracer-wide monotonically increasing sequence number; it
	// orders events more finely than Time on coarse clocks.
	Seq    int64     `json:"seq"`
	Time   time.Time `json:"time"`
	Type   string    `json:"type"`
	Detail string    `json:"detail,omitempty"`
}

// jobTrace is one job's ring buffer of events.
type jobTrace struct {
	events  []Event // ring storage, len <= perJob
	next    int     // overwrite position once full
	full    bool
	dropped int64 // events overwritten
}

// maxEvents bounds the events retained across all jobs to 32 full rings;
// the other two limits alone admit 512, some 95 MB of detail strings, so
// a process's memory grew with the jobs it had finished.
const maxEvents = 1 << 15

// Tracer records per-job event traces in bounded ring buffers. Memory is
// bounded three ways: at most MaxJobs job traces are retained and at most
// maxEvents events across them (whole oldest traces evicted first, and
// none while the oldest is the emitting job's), and each trace keeps at
// most EventsPerJob events (oldest overwritten first, counted as
// dropped). Safe for concurrent use; a nil *Tracer ignores Emit and
// reports no events.
type Tracer struct {
	clk clock.Clock

	mu      sync.Mutex
	maxJobs int
	perJob  int
	jobs    map[string]*jobTrace
	order   []string // job insertion order, for eviction
	held    int      // events retained across all traces
	seq     int64
}

// NewTracer returns a tracer using clk for event timestamps (nil selects
// the wall clock). maxJobs and eventsPerJob bound retention; values < 1
// select the defaults of 512 jobs and 1024 events per job.
func NewTracer(clk clock.Clock, maxJobs, eventsPerJob int) *Tracer {
	if clk == nil {
		clk = clock.NewReal()
	}
	if maxJobs < 1 {
		maxJobs = 512
	}
	if eventsPerJob < 1 {
		eventsPerJob = 1024
	}
	return &Tracer{
		clk:     clk,
		maxJobs: maxJobs,
		perJob:  eventsPerJob,
		jobs:    make(map[string]*jobTrace),
	}
}

// Emit appends one event to the job's trace.
func (t *Tracer) Emit(jobID, typ, detail string) {
	if t == nil || jobID == "" {
		return
	}
	now := t.clk.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	jt, ok := t.jobs[jobID]
	if !ok {
		jt = &jobTrace{}
		t.jobs[jobID] = jt
		t.order = append(t.order, jobID)
		for len(t.order) > t.maxJobs {
			t.evictOldest()
		}
	}
	t.seq++
	ev := Event{Seq: t.seq, Time: now, Type: typ, Detail: detail}
	if len(jt.events) < t.perJob {
		jt.events = append(jt.events, ev)
		t.held++
		for t.held > maxEvents && t.order[0] != jobID {
			t.evictOldest()
		}
		return
	}
	jt.events[jt.next] = ev
	jt.next = (jt.next + 1) % t.perJob
	jt.full = true
	jt.dropped++
}

// evictOldest drops the oldest retained trace. Callers hold t.mu.
func (t *Tracer) evictOldest() {
	t.held -= len(t.jobs[t.order[0]].events)
	delete(t.jobs, t.order[0])
	t.order = t.order[1:]
}

// Emitf is Emit with a formatted detail string.
func (t *Tracer) Emitf(jobID, typ, format string, args ...interface{}) {
	if t == nil || jobID == "" {
		return
	}
	t.Emit(jobID, typ, fmt.Sprintf(format, args...))
}

// Events returns a copy of the job's trace in emission order, plus how
// many older events were dropped by the ring buffer.
func (t *Tracer) Events(jobID string) ([]Event, int64) {
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	jt, ok := t.jobs[jobID]
	if !ok {
		return nil, 0
	}
	out := make([]Event, 0, len(jt.events))
	if jt.full {
		out = append(out, jt.events[jt.next:]...)
		out = append(out, jt.events[:jt.next]...)
	} else {
		out = append(out, jt.events...)
	}
	return out, jt.dropped
}

// Jobs reports how many job traces are currently retained.
func (t *Tracer) Jobs() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.jobs)
}

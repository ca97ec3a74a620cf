package obs

import (
	"context"
	"encoding/binary"
	"log/slog"
	"strings"
	"sync"
	"time"

	"xtract/internal/clock"
)

// Event type names emitted along the job hot path, in lifecycle order.
// The ring accepts arbitrary strings; these constants keep producers and
// the API documentation in sync. DESIGN §8 lists each type's attributes.
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
	// EvTaskHedged marks a speculative duplicate, sent to site, of a step
	// running past its extractor's latency estimate.
	EvTaskHedged      = "task_hedged"
	EvFamilyDone      = "family_done"
	EvFamilyFailed    = "family_failed"
	EvFamilyValidated = "family_validated"
	// EvFamilyRejected marks a family whose document the validation
	// service did not write (stage says where it stopped).
	EvFamilyRejected = "family_rejected"
	EvJobCompleted   = "job_completed"
	EvJobFailed      = "job_failed"
	EvJobCancelled   = "job_cancelled"
	// EvJobRecovered marks a job restored from the durable journal after a
	// service restart, before its pump resumes.
	EvJobRecovered = "job_recovered"
	// EvTenantThrottled marks a dispatch that had to wait for a
	// fair-share task slot.
	EvTenantThrottled = "tenant_throttled"
)

// Event is one entry of a job's trace as a reader sees it. Detail and
// Attrs are both rendered from the attributes the event was written
// with: Detail as k=v pairs in emission order, Attrs keyed by name.
type Event struct {
	// Seq is a process-wide monotonically increasing sequence number; it
	// orders events more finely than Time on coarse clocks.
	Seq    int64          `json:"seq"`
	Time   time.Time      `json:"time"`
	Type   string         `json:"type"`
	Detail string         `json:"detail,omitempty"`
	Attrs  map[string]any `json:"attrs,omitempty"`
}

// The ring's bounds: events per job (oldest overwritten first, counted
// as dropped), jobs retained, and events retained across all jobs (whole
// oldest traces evicted first). The last keeps a long-lived process from
// holding 512 full rings for the jobs it has finished.
const (
	perJob    = 1024
	maxJobs   = 512
	maxEvents = 1 << 15
)

// A new job's trace starts with room for a small job's events and their
// attributes (a 20-file job writes about 70), so it does not grow its way
// there one doubling at a time. A power of two below 256 keeps the path
// append takes to perJob, so a full trace holds what it always did.
const (
	firstEvents = 64
	firstArena  = firstEvents * 64
)

// entry is one event as the ring holds it. Its attributes are the bytes
// [off, end) of its job's attribute stream (see jobTrace): encoded, they
// keep none of the caller's strings alive and hold no pointer for the
// collector to trace, and nothing is formatted until they are read.
type entry struct {
	seq      int64
	time     time.Time
	typ      string
	off, end int
}

// appendAttr encodes one attribute: its key, its kind, then an int64 or
// a duration as a varint and a string as its bytes. A value of any other
// kind (none is written on the pump's path) is kept as its text; a list
// of strings, job_submitted's repositories, as the text fmt makes of it,
// made here without fmt.
func appendAttr(b []byte, a slog.Attr) []byte {
	b = appendString(b, a.Key)
	switch v := a.Value; v.Kind() {
	case slog.KindInt64:
		return binary.AppendVarint(append(b, byte(slog.KindInt64)), v.Int64())
	case slog.KindDuration:
		return binary.AppendVarint(append(b, byte(slog.KindDuration)), int64(v.Duration()))
	case slog.KindAny:
		if ss, ok := v.Any().([]string); ok {
			return appendList(append(b, byte(slog.KindString)), ss)
		}
	}
	return appendString(append(b, byte(slog.KindString)), a.Value.String())
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// appendList encodes ss as appendString would fmt.Sprint(ss): "[a b]".
func appendList(b []byte, ss []string) []byte {
	n := 2 + max(len(ss)-1, 0)
	for _, s := range ss {
		n += len(s)
	}
	b = append(binary.AppendUvarint(b, uint64(n)), '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, s...)
	}
	return append(b, ']')
}

// nextAttr decodes the attribute appendAttr wrote at the head of b and
// returns the rest of b.
func nextAttr(b []byte) (slog.Attr, []byte) {
	key, b := nextString(b)
	kind, b := slog.Kind(b[0]), b[1:]
	if kind == slog.KindString {
		s, b := nextString(b)
		return slog.String(key, s), b
	}
	x, n := binary.Varint(b)
	if kind == slog.KindDuration {
		return slog.Duration(key, time.Duration(x)), b[n:]
	}
	return slog.Int64(key, x), b[n:]
}

func nextString(b []byte) (string, []byte) {
	n, m := binary.Uvarint(b)
	end := m + int(n)
	return string(b[m:end]), b[end:]
}

// jobTrace is one job's ring of events and the arena that holds their
// attributes. The job's attribute stream is every event's encoded
// attributes in emission order; arena[i] is its byte base+i. Bytes below
// len(arena) are never written again, so a reader that took the arena
// under the lock decodes it after letting go. An append that would pass
// cap(arena) first moves the live events' bytes (a suffix of the stream)
// into a fresh buffer one and a half times their size and leaves the
// old one to readers still holding it: once the ring is full, one
// allocation every ~perJob/2 events, when about a third of the arena has
// been overwritten. (Twice their size read 6 % more peak RSS on bench's
// stage-remote.)
type jobTrace struct {
	entries []entry // len <= perJob
	next    int     // overwrite position once full, 0 until then
	dropped int64   // events overwritten
	arena   []byte
	base    int
}

func newJobTrace() *jobTrace {
	return &jobTrace{entries: make([]entry, 0, firstEvents), arena: make([]byte, 0, firstArena)}
}

// add appends an event with attributes enc to the trace and reports
// whether the trace grew (false: it overwrote its oldest event).
func (jt *jobTrace) add(e entry, enc []byte) bool {
	if len(jt.arena)+len(enc) > cap(jt.arena) {
		live := jt.arena[len(jt.arena):]
		if len(jt.entries) > 0 { // entries[next] is the oldest
			live = jt.arena[jt.entries[jt.next].off-jt.base:]
		}
		jt.base += len(jt.arena) - len(live)
		jt.arena = append(make([]byte, 0, len(live)+len(live)/2+len(enc)), live...)
	}
	e.off = jt.base + len(jt.arena)
	e.end = e.off + len(enc)
	jt.arena = append(jt.arena, enc...)
	if len(jt.entries) < perJob {
		jt.entries = append(jt.entries, e)
		return true
	}
	jt.entries[jt.next] = e
	jt.next = (jt.next + 1) % perJob
	jt.dropped++
	return false
}

// ring keeps the per-job traces within the bounds above; no eviction
// takes the trace of the job that is emitting.
type ring struct {
	clk clock.Clock

	mu    sync.Mutex
	jobs  map[string]*jobTrace
	order []string // job insertion order, for eviction
	held  int      // events retained across all traces
	seq   int64
}

// evictOldest drops the oldest retained trace. Callers hold r.mu.
func (r *ring) evictOldest() {
	r.held -= len(r.jobs[r.order[0]].entries)
	delete(r.jobs, r.order[0])
	r.order = r.order[1:]
}

// render is the entry, with attrs its attribute bytes, as a reader sees
// it.
func (e *entry) render(attrs []byte) Event {
	ev := Event{Seq: e.seq, Time: e.time, Type: e.typ, Attrs: make(map[string]any)}
	var b strings.Builder
	for rest := attrs; len(rest) > 0; {
		var a slog.Attr
		a, rest = nextAttr(rest)
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(a.Key)
		b.WriteByte('=')
		b.WriteString(a.Value.String())
		ev.Attrs[a.Key] = a.Value.Any()
	}
	ev.Detail = b.String()
	return ev
}

// Event appends one event to the job's trace; a no-op on a nil observer
// or for an empty job ID. The attributes are encoded on the stack and
// appended to the job's arena: they are typed values, and nothing is
// formatted until a reader asks for the trace.
func (o *Observer) Event(job, typ string, attrs ...slog.Attr) {
	if o == nil || job == "" {
		return
	}
	var buf [256]byte
	enc := buf[:0]
	for _, a := range attrs {
		enc = appendAttr(enc, a)
	}
	r := &o.trace
	e := entry{time: r.clk.Now(), typ: typ}
	r.mu.Lock()
	defer r.mu.Unlock()
	jt, ok := r.jobs[job]
	if !ok {
		jt = newJobTrace()
		r.jobs[job] = jt
		r.order = append(r.order, job)
		for len(r.order) > maxJobs {
			r.evictOldest()
		}
	}
	r.seq++
	e.seq = r.seq
	if jt.add(e, enc) {
		r.held++
		for r.held > maxEvents && r.order[0] != job {
			r.evictOldest()
		}
	}
}

// Warn is Event for an outcome an operator should see without asking:
// the record also goes to the process log, slog.Default(), at LevelWarn
// with a job attribute, even when the observer is nil. It is logged
// first, so a reader who finds the event on the trace finds it logged.
func (o *Observer) Warn(job, typ string, attrs ...slog.Attr) {
	slog.Default().LogAttrs(context.Background(), slog.LevelWarn, typ,
		append([]slog.Attr{slog.String("job", job)}, attrs...)...)
	o.Event(job, typ, attrs...)
}

// Events returns the job's trace in emission order, plus how many older
// events the ring dropped; empty for a nil observer or an unknown job.
// The arena's bytes below its length are never written again, so the
// entries are rendered unlocked from the arena taken under the lock.
func (o *Observer) Events(job string) ([]Event, int64) {
	if o == nil {
		return []Event{}, 0
	}
	r := &o.trace
	r.mu.Lock()
	var held []entry
	var dropped int64
	var arena []byte
	var base int
	if jt, ok := r.jobs[job]; ok {
		held = make([]entry, 0, len(jt.entries))
		held = append(append(held, jt.entries[jt.next:]...), jt.entries[:jt.next]...)
		dropped, arena, base = jt.dropped, jt.arena, jt.base
	}
	r.mu.Unlock()
	out := make([]Event, len(held))
	for i, e := range held {
		out[i] = e.render(arena[e.off-base : e.end-base])
	}
	return out, dropped
}

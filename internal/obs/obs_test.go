package obs

import (
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xtract/internal/clock"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "total jobs")
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: counters are monotonic
	if got := c.Value(); got != 3 {
		t.Fatalf("counter = %v, want 3", got)
	}
	// Same name returns the same underlying series.
	if got := r.Counter("jobs_total", "total jobs").Value(); got != 3 {
		t.Fatalf("re-registered counter = %v, want 3", got)
	}

	g := r.Gauge("depth", "queue depth")
	g.Set(10)
	g.Dec()
	g.Add(-2)
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %v, want 7", got)
	}
}

func TestVecLabels(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("tasks_total", "tasks by status", "status")
	cv.With("ok").Add(4)
	cv.With("lost").Inc()
	if got := cv.With("ok").Value(); got != 4 {
		t.Fatalf("With(ok) = %v, want 4", got)
	}
	if got := cv.With("lost").Value(); got != 1 {
		t.Fatalf("With(lost) = %v, want 1", got)
	}

	defer func() {
		if recover() == nil {
			t.Fatal("wrong label arity should panic")
		}
	}()
	cv.With("a", "b")
}

func TestTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge should panic")
		}
	}()
	r.Gauge("x", "h")
}

// A name is exposed through handles or through funcs, never both: one
// series of each would print the name twice, and the handle's would read
// 0 for ever. Either order panics, whatever the handle's kind.
func TestHandleAndFuncSeriesDoNotMix(t *testing.T) {
	read := func(r *Registry) { r.CounterFunc("x_total", "h", nil, func() int64 { return 7 }) }
	for _, handle := range []struct {
		name string
		reg  func(*Registry)
	}{
		{"counter", func(r *Registry) { r.Counter("x_total", "h") }},
		{"counter vec", func(r *Registry) { r.CounterVec("x_total", "h", "kind") }},
	} {
		for _, order := range [][2]func(*Registry){{read, handle.reg}, {handle.reg, read}} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: a handle and a func series under one name did not panic", handle.name)
					}
				}()
				r := NewRegistry()
				order[0](r)
				order[1](r)
			}()
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency_seconds", "latency", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 55.65 {
		t.Fatalf("sum = %v, want 55.65", h.Sum())
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		`latency_seconds_bucket{le="0.1"} 2`, // 0.05 and 0.1 (le is inclusive)
		`latency_seconds_bucket{le="1"} 3`,
		`latency_seconds_bucket{le="10"} 4`,
		`latency_seconds_bucket{le="+Inf"} 5`,
		`latency_seconds_count 5`,
		"# TYPE latency_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("b_total", "b help", "site").With(`we"ird\value`).Inc()
	r.Gauge("a_gauge", "a help").Set(2.5)
	r.GaugeFunc("depth", "live depth", map[string]string{"queue": "families"},
		func() float64 { return 7 })

	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	// Families are sorted by name: a_gauge, b_total, depth.
	ia, ib, id := strings.Index(out, "a_gauge"), strings.Index(out, "b_total"), strings.Index(out, "depth")
	if !(ia < ib && ib < id) {
		t.Fatalf("families not sorted:\n%s", out)
	}
	for _, want := range []string{
		"# HELP a_gauge a help",
		"# TYPE a_gauge gauge",
		"a_gauge 2.5",
		`b_total{site="we\"ird\\value"} 1`,
		`depth{queue="families"} 7`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// A counter read at scrape time prints what a handle holding the same
// value prints, labeled or not, fractional and with its labels in the
// order given, and a nil registry ignores it.
func TestCounterFuncExposesLikeACounter(t *testing.T) {
	var n atomic.Int64
	n.Store(1 << 40)
	pushed, read, none := NewRegistry(), NewRegistry(), (*Registry)(nil)
	pushed.Counter("c_total", "h").Add(1 << 40)
	pushed.CounterVec("v_total", "h", "result").With("ok").Add(1 << 40)
	read.CounterFunc("c_total", "h", nil, n.Load)
	read.CounterFunc("v_total", "h", map[string]string{"result": "ok"}, n.Load)
	none.CounterFunc("c_total", "h", nil, n.Load)
	pushed.CounterVec("f_total", "h", "tenant", "state").With("a", "complete").Add(2.5)
	read.FloatCounterFunc("f_total", "h", func() float64 { return 2.5 }, [2]string{"tenant", "a"}, [2]string{"state", "complete"})
	none.FloatCounterFunc("f_total", "h", func() float64 { return 2.5 })
	var a, b strings.Builder
	pushed.WritePrometheus(&a)
	read.WritePrometheus(&b)
	if a.String() != b.String() || !strings.Contains(b.String(), `v_total{result="ok"} 1.099511627776e+12`) ||
		!strings.Contains(b.String(), `f_total{tenant="a",state="complete"} 2.5`) {
		t.Fatalf("handle:\n%s\ncallback:\n%s", a.String(), b.String())
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("c", "h").Inc()
	r.CounterVec("cv", "h", "l").With("x").Add(2)
	r.Gauge("g", "h").Set(1)
	r.Gauge("gv", "h").Dec()
	r.Histogram("h", "h", nil).Observe(1)
	r.HistogramVec("hv", "h", nil, "l").With("x").ObserveDuration(time.Second)
	r.GaugeFunc("gf", "h", nil, func() float64 { return 1 })
	var sb strings.Builder
	r.WritePrometheus(&sb)
	if sb.Len() != 0 {
		t.Fatalf("nil registry wrote %q", sb.String())
	}

	var o *Observer
	o.Event("job-1", EvJobSubmitted, slog.String("site", "local"))
	o.Reg().Counter("c", "h").Inc()
	// No trace reads as an empty one, never nil: the API serves [].
	if evs, dropped := o.Events("job-1"); evs == nil || len(evs) != 0 || dropped != 0 {
		t.Fatalf("nil observer returned events %#v, dropped %d", evs, dropped)
	}
	// An event without a job has no trace to go to.
	o = New(clock.NewReal())
	o.Event("", EvJobSubmitted)
	if len(o.trace.jobs) != 0 {
		t.Fatalf("an event without a job made %d traces", len(o.trace.jobs))
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("n_total", "h", "worker")
	h := r.Histogram("d_seconds", "h", nil)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			w := string(rune('a' + id))
			for j := 0; j < 1000; j++ {
				cv.With(w).Inc()
				h.Observe(float64(j) / 1000)
			}
		}(i)
	}
	wg.Wait()
	if h.Count() != 8000 {
		t.Fatalf("histogram count = %d, want 8000", h.Count())
	}
	if got := cv.With("a").Value(); got != 1000 {
		t.Fatalf("worker a = %v, want 1000", got)
	}
}

// TestEventsReadWhileWritten: a reader renders a trace from the arena it
// took under the lock while writers go on appending to it, wrapping the
// ring and compacting the arena: every event it reads is whole.
func TestEventsReadWhileWritten(t *testing.T) {
	o := New(clock.NewReal())
	var writers, readers sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				evs, _ := o.Events("job-1")
				for i, ev := range evs {
					n, _ := ev.Attrs["n"].(int64) // 0 if a torn event's n is not an int64
					w := ev.Attrs["writer"]
					if ev.Detail != fmt.Sprintf("writer=%v n=%d pad=%s", w, n, strings.Repeat("p", int(n%50))) ||
						i > 0 && ev.Seq <= evs[i-1].Seq {
						t.Errorf("read a torn or misordered event: %+v", ev)
						return
					}
				}
			}
		}()
	}
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w string) {
			defer writers.Done()
			for n := 0; n < 3*perJob; n++ {
				o.Event("job-1", EvTaskCompleted, slog.String("writer", w), slog.Int("n", n),
					slog.String("pad", strings.Repeat("p", n%50)))
			}
		}(string(rune('a' + w)))
	}
	writers.Wait()
	close(done)
	readers.Wait()
	if evs, dropped := o.Events("job-1"); len(evs) != perJob || dropped != 5*perJob {
		t.Fatalf("%d events, %d dropped; want %d and %d", len(evs), dropped, perJob, 5*perJob)
	}
}

func TestTracerOrderAndRing(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	o := New(clk)
	o.Event("job-1", EvJobSubmitted, slog.Any("repositories", []string{"a:/x", "b:/y"}))
	o.Event("job-1", EvCrawlStarted, slog.String("site", "local"), slog.Int("roots", 2))
	o.Event("job-1", EvFamilyStaged, slog.String("family", "f"), slog.Duration("elapsed", 1500*time.Millisecond))

	evs, dropped := o.Events("job-1")
	if dropped != 0 || len(evs) != 3 {
		t.Fatalf("events = %d dropped = %d", len(evs), dropped)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("events out of order: %+v", evs)
		}
	}
	// Text is made at read: detail in emission order, attrs typed; a
	// kind the ring has no encoding for is kept as its text.
	if evs[0].Type != EvJobSubmitted || evs[0].Attrs["repositories"] != "[a:/x b:/y]" || !evs[0].Time.Equal(time.Unix(1000, 0)) {
		t.Fatalf("first event = %+v", evs[0])
	}
	if evs[1].Detail != "site=local roots=2" || evs[1].Attrs["site"] != "local" || evs[1].Attrs["roots"] != int64(2) {
		t.Fatalf("crawl_started = %+v", evs[1])
	}
	if evs[2].Detail != "family=f elapsed=1.5s" || evs[2].Attrs["elapsed"] != 1500*time.Millisecond {
		t.Fatalf("family_staged = %+v", evs[2])
	}

	long := strings.Repeat("x", 300) // past the encoder's stack buffer
	o.Event("job-2", EvTaskFailed, slog.String("cause", long))
	if evs, _ := o.Events("job-2"); len(evs) != 1 || evs[0].Attrs["cause"] != long {
		t.Fatalf("a long attribute came back as %+v", evs)
	}

	// Overflow the job's ring: the oldest events drop off, counted.
	for i := 0; i < perJob; i++ {
		o.Event("job-1", EvTaskCompleted, slog.Int("n", i))
	}
	o.Event("job-1", EvJobCompleted)
	evs, dropped = o.Events("job-1")
	if dropped != 4 || len(evs) != perJob {
		t.Fatalf("after overflow: events = %d dropped = %d, want %d and 4", len(evs), dropped, perJob)
	}
	if last := evs[perJob-1]; evs[0].Attrs["n"] != int64(1) || last.Type != EvJobCompleted || last.Detail != "" || len(last.Attrs) != 0 {
		t.Fatalf("ring order wrong: first %+v, last %+v", evs[0], evs[perJob-1])
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq != evs[i-1].Seq+1 {
			t.Fatalf("events out of order at %d: %d then %d", i, evs[i-1].Seq, evs[i].Seq)
		}
	}
}

// TestTracerEventBudget: a long-lived process finishing full-ring jobs
// holds at most maxEvents events whatever the per-job and per-job-count
// limits admit; whole oldest traces go first, the emitting job's never
// does, and a retained job's trace reads as before.
func TestTracerEventBudget(t *testing.T) {
	const jobs = 600
	o := New(clock.NewReal())
	held := func() (n int) {
		o.trace.mu.Lock()
		defer o.trace.mu.Unlock()
		for job, jt := range o.trace.jobs {
			n += len(jt.entries)
			for _, e := range jt.entries {
				if e.off < jt.base || e.end < e.off || e.end > jt.base+len(jt.arena) {
					t.Fatalf("%s: an event's attributes [%d, %d) lie outside its arena [%d, %d)",
						job, e.off, e.end, jt.base, jt.base+len(jt.arena))
				}
			}
		}
		if n != o.trace.held {
			t.Fatalf("ring counts %d held events, its traces hold %d", o.trace.held, n)
		}
		return n
	}
	for j := 0; j < jobs; j++ {
		id := fmt.Sprintf("job-%d", j)
		for e := 0; e < perJob+10; e++ { // ten past the ring: the oldest ten drop
			o.Event(id, EvTaskCompleted, slog.String("task", "t"))
		}
		if n := held(); n > maxEvents {
			t.Fatalf("after %d jobs the ring holds %d events, budget %d", j+1, n, maxEvents)
		}
	}
	if want := maxEvents / perJob; len(o.trace.jobs) != want {
		t.Fatalf("%d traces retained, want the newest %d", len(o.trace.jobs), want)
	}
	evs, dropped := o.Events(fmt.Sprintf("job-%d", jobs-1))
	if len(evs) != perJob || dropped != 10 {
		t.Fatalf("newest job: %d events, %d dropped; want %d and 10", len(evs), dropped, perJob)
	}
	if evs, _ := o.Events("job-0"); len(evs) != 0 {
		t.Fatalf("the oldest job still has %d events", len(evs))
	}

	// The budget never costs the emitting job its own trace: while the
	// oldest retained job is the one emitting, nothing is evicted (its
	// ring bounds the overshoot), and the next job to emit makes room.
	o = New(clock.NewReal())
	o.Event("job-a", EvJobSubmitted)
	for e := 1; e < maxEvents; e++ { // the rest of the budget: job-0 one short of full
		o.Event(fmt.Sprintf("job-%d", e/perJob), EvTaskCompleted)
	}
	for e := 1; e < perJob; e++ {
		o.Event("job-a", EvTaskCompleted)
	}
	if evs, _ := o.Events("job-a"); len(evs) != perJob || held() != maxEvents+perJob-1 {
		t.Fatalf("emitting job kept %d of its %d events, ring holds %d", len(evs), perJob, held())
	}
	o.Event("job-0", EvJobCompleted)
	if evs, _ := o.Events("job-a"); len(evs) != 0 {
		t.Fatal("the oldest trace outlived a full budget once another job emitted")
	}
	if evs, _ := o.Events("job-0"); len(evs) != perJob || held() != maxEvents {
		t.Fatalf("job-0 has %d events, want %d; ring holds %d", len(evs), perJob, held())
	}
}

// TestTracerEvictsOldJobs: the ring keeps the newest maxJobs traces.
func TestTracerEvictsOldJobs(t *testing.T) {
	o := New(clock.NewReal())
	for j := 0; j <= maxJobs; j++ {
		o.Event(fmt.Sprintf("job-%d", j), EvJobSubmitted)
	}
	if len(o.trace.jobs) != maxJobs {
		t.Fatalf("jobs retained = %d, want %d", len(o.trace.jobs), maxJobs)
	}
	if evs, _ := o.Events("job-0"); evs == nil || len(evs) != 0 {
		t.Fatalf("evicted job has events %#v, want none", evs)
	}
	if evs, _ := o.Events(fmt.Sprintf("job-%d", maxJobs)); len(evs) != 1 {
		t.Fatalf("newest job events = %v", evs)
	}
}

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// TestEventStaysInItsBudget: once a job's ring is full an event costs no
// allocation of its own: its attributes are encoded on the stack and
// appended to the job's arena, which is compacted about once every
// perJob/2 events. Nothing on a nil observer. The race detector changes
// allocation counts, so the test skips under it.
func TestEventStaysInItsBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	o := New(clock.NewReal())
	fam, task := "x:/d#0", "task-1"
	// A list is boxed into its slog.Value by the caller, once per
	// job_submitted; the row holds what the event itself costs.
	repos := slog.Any("repositories", []string{"local:/data", "remote:/mdf/run-7"})
	emit := func(o *Observer) func() {
		return func() {
			o.Event("job-1", EvBatchDispatched, slog.String("task", task), slog.Int("steps", 300),
				slog.String("family", fam))
		}
	}
	emitList := func(o *Observer) func() {
		return func() { o.Event("job-1", EvJobSubmitted, repos) }
	}
	for e := 0; e < perJob; e++ { // the ring is full: no growth is counted
		emit(o)()
	}
	if n := testing.AllocsPerRun(4*perJob, emit(o)); n != 0 {
		t.Fatalf("an event with three attributes allocated %.0f times, budget 0", n)
	}
	if n := testing.AllocsPerRun(4*perJob, emitList(o)); n != 0 {
		t.Fatalf("an event with a list of strings allocated %.0f times, budget 0", n)
	}
	for _, mk := range []func(*Observer) func(){emit, emitList} {
		if n := testing.AllocsPerRun(1000, mk(nil)); n != 0 {
			t.Fatalf("an event on a nil observer allocated %.0f times, budget 0", n)
		}
	}
}

// TestListAttributeReadsAsFmtPrintsIt: a list of strings is kept as the
// text fmt.Sprint makes of it, the empty and the nil list included, so
// the trace reads as it did when fmt made it.
func TestListAttributeReadsAsFmtPrintsIt(t *testing.T) {
	o := New(clock.NewReal())
	for i, ss := range [][]string{nil, {}, {""}, {"a:/x"}, {"a:/x", "b:/y"}, {"", " ", "a b", "[c]"}} {
		job := fmt.Sprintf("job-%d", i)
		o.Event(job, EvJobSubmitted, slog.Any("repositories", ss))
		evs, _ := o.Events(job)
		want := fmt.Sprint(ss)
		if evs[0].Attrs["repositories"] != want || evs[0].Detail != "repositories="+want {
			t.Errorf("%q reads %+v, want %q", ss, evs[0], want)
		}
	}
}

// TestFullTraceHoldsWhatItDid: a trace that starts with room for a small
// job's events ends, once full, holding the entries a trace grown from
// nothing holds, and an arena whose largest size is within 1 % of that
// trace's: the ring's bound retains the bytes it did. Event sizes vary,
// as a job's do, so where compactions fall differs between the two.
func TestFullTraceHoldsWhatItDid(t *testing.T) {
	grown, sized := &jobTrace{}, newJobTrace()
	enc := make([]byte, 0, 128)
	var grownMax, sizedMax int
	for i := 0; i < 20*perJob; i++ {
		enc = enc[:10+(i*31)%97]
		grown.add(entry{}, enc)
		sized.add(entry{}, enc)
		if i == perJob-1 && cap(grown.entries) != cap(sized.entries) {
			t.Fatalf("a full trace holds %d entries, %d grown from nothing", cap(sized.entries), cap(grown.entries))
		}
		grownMax, sizedMax = max(grownMax, cap(grown.arena)), max(sizedMax, cap(sized.arena))
	}
	if r := float64(sizedMax) / float64(grownMax); r < 0.99 || r > 1.01 {
		t.Fatalf("a full trace's arena reaches %d bytes, %d grown from nothing", sizedMax, grownMax)
	}
}

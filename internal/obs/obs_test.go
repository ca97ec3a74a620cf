package obs

import (
	"fmt"
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
// value prints, labeled or not, and a nil registry ignores it.
func TestCounterFuncExposesLikeACounter(t *testing.T) {
	var n atomic.Int64
	n.Store(1 << 40)
	pushed, read, none := NewRegistry(), NewRegistry(), (*Registry)(nil)
	pushed.Counter("c_total", "h").Add(1 << 40)
	pushed.CounterVec("v_total", "h", "result").With("ok").Add(1 << 40)
	read.CounterFunc("c_total", "h", nil, n.Load)
	read.CounterFunc("v_total", "h", map[string]string{"result": "ok"}, n.Load)
	none.CounterFunc("c_total", "h", nil, n.Load)
	var a, b strings.Builder
	pushed.WritePrometheus(&a)
	read.WritePrometheus(&b)
	if a.String() != b.String() || !strings.Contains(b.String(), `v_total{result="ok"} 1.099511627776e+12`) {
		t.Fatalf("handle:\n%s\ncallback:\n%s", a.String(), b.String())
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("c", "h").Inc()
	r.CounterVec("cv", "h", "l").With("x").Add(2)
	r.Gauge("g", "h").Set(1)
	r.GaugeVec("gv", "h", "l").With("x").Dec()
	r.Histogram("h", "h", nil).Observe(1)
	r.HistogramVec("hv", "h", nil, "l").With("x").ObserveDuration(time.Second)
	r.GaugeFunc("gf", "h", nil, func() float64 { return 1 })
	var sb strings.Builder
	r.WritePrometheus(&sb)
	if sb.Len() != 0 {
		t.Fatalf("nil registry wrote %q", sb.String())
	}

	var o *Observer
	o.Emit("job-1", EvJobSubmitted, "")
	o.Reg().Counter("c", "h").Inc()
	if evs, _ := o.Tracer().Events("job-1"); evs != nil {
		t.Fatalf("nil tracer returned events %v", evs)
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

func TestTracerOrderAndRing(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	tr := NewTracer(clk, 4, 3)
	tr.Emit("job-1", EvJobSubmitted, "start")
	tr.Emit("job-1", EvCrawlStarted, "site=local")
	tr.Emit("job-1", EvBatchDispatched, "task=1")

	evs, dropped := tr.Events("job-1")
	if dropped != 0 || len(evs) != 3 {
		t.Fatalf("events = %d dropped = %d", len(evs), dropped)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("events out of order: %+v", evs)
		}
	}
	if evs[0].Type != EvJobSubmitted || evs[2].Detail != "task=1" {
		t.Fatalf("events = %+v", evs)
	}

	// Overflow the 3-slot ring: the oldest events drop off.
	tr.Emit("job-1", EvTaskCompleted, "task=1")
	tr.Emit("job-1", EvJobCompleted, "")
	evs, dropped = tr.Events("job-1")
	if dropped != 2 || len(evs) != 3 {
		t.Fatalf("after overflow: events = %d dropped = %d", len(evs), dropped)
	}
	if evs[0].Type != EvBatchDispatched || evs[2].Type != EvJobCompleted {
		t.Fatalf("ring order wrong: %+v", evs)
	}
}

// TestTracerEventBudget: a long-lived process finishing full-ring jobs
// holds at most maxEvents events whatever the per-job and per-tracer
// limits admit; whole oldest traces go first, the emitting job's never
// does, and a retained job's trace reads as before.
func TestTracerEventBudget(t *testing.T) {
	const jobs, perJob = 600, 1024
	tr := NewTracer(nil, 0, 0)
	held := func() (n int) {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		for _, jt := range tr.jobs {
			n += len(jt.events)
		}
		if n != tr.held {
			t.Fatalf("tracer counts %d held events, its traces hold %d", tr.held, n)
		}
		return n
	}
	for j := 0; j < jobs; j++ {
		id := fmt.Sprintf("job-%d", j)
		for e := 0; e < perJob+10; e++ { // ten past the ring: the oldest ten drop
			tr.Emit(id, EvTaskCompleted, "task")
		}
		if n := held(); n > maxEvents {
			t.Fatalf("after %d jobs the tracer holds %d events, budget %d", j+1, n, maxEvents)
		}
	}
	if want := maxEvents / perJob; tr.Jobs() != want {
		t.Fatalf("%d traces retained, want the newest %d", tr.Jobs(), want)
	}
	evs, dropped := tr.Events(fmt.Sprintf("job-%d", jobs-1))
	if len(evs) != perJob || dropped != 10 {
		t.Fatalf("newest job: %d events, %d dropped; want %d and 10", len(evs), dropped, perJob)
	}
	if evs, _ := tr.Events("job-0"); evs != nil {
		t.Fatalf("the oldest job still has %d events", len(evs))
	}

	// The budget never costs the emitting job its own trace: while the
	// oldest retained job is the one emitting, nothing is evicted (its
	// ring bounds the overshoot), and the next job to emit makes room.
	tr2 := NewTracer(nil, 0, 2*maxEvents)
	tr2.Emit("job-a", EvJobSubmitted, "")
	tr2.Emit("job-b", EvJobSubmitted, "")
	for e := 0; e < maxEvents; e++ {
		tr2.Emit("job-a", EvTaskCompleted, "task")
	}
	if evs, _ := tr2.Events("job-a"); len(evs) != maxEvents+1 {
		t.Fatalf("emitting job kept %d of its %d events", len(evs), maxEvents+1)
	}
	tr2.Emit("job-b", EvJobCompleted, "")
	if evs, _ := tr2.Events("job-a"); evs != nil {
		t.Fatal("the oldest trace outlived a full budget once another job emitted")
	}
	if evs, _ := tr2.Events("job-b"); len(evs) != 2 {
		t.Fatalf("job-b has %d events, want 2", len(evs))
	}
}

func TestTracerEvictsOldJobs(t *testing.T) {
	tr := NewTracer(nil, 2, 8)
	tr.Emit("job-1", EvJobSubmitted, "")
	tr.Emit("job-2", EvJobSubmitted, "")
	tr.Emit("job-3", EvJobSubmitted, "")
	if tr.Jobs() != 2 {
		t.Fatalf("jobs retained = %d, want 2", tr.Jobs())
	}
	if evs, _ := tr.Events("job-1"); len(evs) != 0 {
		t.Fatalf("evicted job still has events: %v", evs)
	}
	if evs, _ := tr.Events("job-3"); len(evs) != 1 {
		t.Fatalf("job-3 events = %v", evs)
	}
}

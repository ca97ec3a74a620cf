package obs

import (
	"strings"
	"testing"
	"time"
)

// TestGaugeFuncDedup pins the re-registration contract: registering the
// same name with the same label set replaces the callback instead of
// appending a duplicate exposition line, while distinct label sets
// coexist as separate series.
func TestGaugeFuncDedup(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("xtract_queue_depth", "depth", map[string]string{"queue": "fam"}, func() float64 { return 1 })
	// Re-instrument (as a recovered component would) with a new closure.
	r.GaugeFunc("xtract_queue_depth", "depth", map[string]string{"queue": "fam"}, func() float64 { return 7 })
	// A different label value is a different series.
	r.GaugeFunc("xtract_queue_depth", "depth", map[string]string{"queue": "res"}, func() float64 { return 3 })

	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()

	if n := strings.Count(out, `xtract_queue_depth{queue="fam"}`); n != 1 {
		t.Fatalf("want exactly 1 fam series line, got %d in:\n%s", n, out)
	}
	if !strings.Contains(out, `xtract_queue_depth{queue="fam"} 7`) {
		t.Fatalf("replaced callback not used:\n%s", out)
	}
	if !strings.Contains(out, `xtract_queue_depth{queue="res"} 3`) {
		t.Fatalf("distinct label set lost:\n%s", out)
	}
}

// TestGaugeFuncDedupUnlabeled covers the nil-label func series path.
func TestGaugeFuncDedupUnlabeled(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("xtract_up", "up", nil, func() float64 { return 0 })
	r.GaugeFunc("xtract_up", "up", nil, func() float64 { return 1 })

	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	if n := strings.Count(out, "xtract_up 1"); n != 1 {
		t.Fatalf("want exactly one xtract_up line with replaced value, got:\n%s", out)
	}
	if strings.Contains(out, "xtract_up 0") {
		t.Fatalf("stale callback still rendered:\n%s", out)
	}
}

// TestCachedHandleZeroAllocs pins the hot-path contract the pump relies
// on: Inc/Observe allocate nothing, and neither does resolving an
// existing one-label series with With where it is used.
func TestCachedHandleZeroAllocs(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("xtract_alloc_ctr", "c", "site")
	c := cv.With("s1")
	g := r.Gauge("xtract_alloc_g", "g")
	hv := r.HistogramVec("xtract_alloc_h", "h", nil, "step")
	h := hv.With("ex")
	site, step := "s1", "ex"

	if n := testing.AllocsPerRun(1000, func() { c.Inc() }); n != 0 {
		t.Errorf("Counter.Inc allocs/op = %v, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { cv.With(site).Inc() }); n != 0 {
		t.Errorf("CounterVec.With(...).Inc allocs/op = %v, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { hv.With(step).ObserveDuration(3 * time.Millisecond) }); n != 0 {
		t.Errorf("HistogramVec.With(...).ObserveDuration allocs/op = %v, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Set(4) }); n != 0 {
		t.Errorf("Gauge.Set allocs/op = %v, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { g.Add(-1) }); n != 0 {
		t.Errorf("Gauge.Add allocs/op = %v, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.Observe(0.042) }); n != 0 {
		t.Errorf("Histogram.Observe allocs/op = %v, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.ObserveDuration(3 * time.Millisecond) }); n != 0 {
		t.Errorf("Histogram.ObserveDuration allocs/op = %v, want 0", n)
	}
}

// TestHistogramConcurrentObserve hammers one histogram series from many
// goroutines and checks the count and bucket total stay exact (the sum
// is CAS-exact too since every sample is the same value).
func TestHistogramConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("xtract_conc_h", "h", []float64{1, 10})
	const workers, per = 8, 5000
	done := make(chan struct{})
	for i := 0; i < workers; i++ {
		go func() {
			for j := 0; j < per; j++ {
				h.Observe(0.5)
			}
			done <- struct{}{}
		}()
	}
	for i := 0; i < workers; i++ {
		<-done
	}
	if got := h.Count(); got != workers*per {
		t.Fatalf("count = %d, want %d", got, workers*per)
	}
	if got, want := h.Sum(), float64(workers*per)*0.5; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	r := NewRegistry()
	c := r.CounterVec("bench_ctr", "c", "site").With("s1")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkCounterIncParallel(b *testing.B) {
	r := NewRegistry()
	c := r.CounterVec("bench_ctr", "c", "site").With("s1")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkGaugeSet(b *testing.B) {
	r := NewRegistry()
	g := r.Gauge("bench_g", "g")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Set(float64(i))
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.HistogramVec("bench_h", "h", nil, "step").With("ex")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(0.003)
	}
}

func BenchmarkHistogramObserveParallel(b *testing.B) {
	r := NewRegistry()
	h := r.HistogramVec("bench_h", "h", nil, "step").With("ex")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(0.003)
		}
	})
}

// BenchmarkWithLookup measures the uncached With path, for comparison
// against the cached-handle benchmarks above.
func BenchmarkWithLookup(b *testing.B) {
	r := NewRegistry()
	v := r.CounterVec("bench_with", "c", "site")
	v.With("s1") // pre-create the series
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.With("s1").Inc()
	}
}

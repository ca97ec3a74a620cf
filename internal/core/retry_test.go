package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"xtract/internal/clock"
	"xtract/internal/crawler"
	"xtract/internal/extractors"
	"xtract/internal/faas"
	"xtract/internal/obs"
	"xtract/internal/registry"
	"xtract/internal/store"
	"xtract/internal/transfer"
)

func TestRetryPolicyDefaults(t *testing.T) {
	p := RetryPolicy{}.withDefaults()
	if p.MaxAttempts != DefaultRetryPolicy.MaxAttempts ||
		p.BaseBackoff != DefaultRetryPolicy.BaseBackoff ||
		p.MaxBackoff != DefaultRetryPolicy.MaxBackoff ||
		p.JobBudget != DefaultRetryPolicy.JobBudget {
		t.Fatalf("withDefaults = %+v", p)
	}
	// Explicit values survive.
	q := RetryPolicy{MaxAttempts: 7, BaseBackoff: time.Millisecond, JobBudget: 9}.withDefaults()
	if q.MaxAttempts != 7 || q.BaseBackoff != time.Millisecond || q.JobBudget != 9 {
		t.Fatalf("explicit fields overwritten: %+v", q)
	}
}

func TestRetryBackoffGrowthAndCap(t *testing.T) {
	// No withDefaults: JitterFrac stays 0 so the values are exact.
	p := RetryPolicy{
		MaxAttempts: 10,
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  80 * time.Millisecond,
		Multiplier:  2,
	}
	want := []time.Duration{
		10 * time.Millisecond,
		20 * time.Millisecond,
		40 * time.Millisecond,
		80 * time.Millisecond,
		80 * time.Millisecond, // capped
	}
	for i, w := range want {
		if d := p.backoff("fam/g/e", i+1); d != w {
			t.Fatalf("backoff(%d) = %s, want %s", i+1, d, w)
		}
	}
}

func TestRetryBackoffJitterDeterministicAndBounded(t *testing.T) {
	p := RetryPolicy{
		MaxAttempts: 5,
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  time.Second,
		Multiplier:  2,
		JitterFrac:  0.2,
		JitterSeed:  42,
	}.withDefaults()
	base := 10 * time.Millisecond
	lo := time.Duration(float64(base) * 0.8)
	hi := time.Duration(float64(base) * 1.2)
	d1 := p.backoff("k", 1)
	d2 := p.backoff("k", 1)
	if d1 != d2 {
		t.Fatalf("jitter not deterministic: %s vs %s", d1, d2)
	}
	if d1 < lo || d1 > hi {
		t.Fatalf("backoff %s outside jitter band [%s, %s]", d1, lo, hi)
	}
	// Different keys and attempts draw different jitter (with this seed).
	if p.backoff("k", 1) == p.backoff("other", 1) && p.backoff("k", 2) == p.backoff("other", 2) {
		t.Fatal("jitter appears key-independent")
	}
}

// TestUnrecoverableEndpointDeadLetters is the bounded-retry regression
// test: an endpoint that dies and never comes back must not loop forever.
// The job converges FAILED with a populated dead-letter report, and the
// retry/dead-letter metrics and trace events are exposed.
func TestUnrecoverableEndpointDeadLetters(t *testing.T) {
	clk := clock.NewReal()
	ob := obs.New(clk)
	fsvc := faas.NewService(clk, faas.Costs{})
	fsvc.Instrument(ob.Reg())
	fabric := transfer.NewFabric(clk)
	_, prefetch, prefetchDone, results := NewQueues(clk)
	svc := New(Config{
		Clock: clk, FaaS: fsvc, Fabric: fabric,
		Registry: registry.New(clk, 0), Library: extractors.DefaultLibrary(),
		PrefetchQueue: prefetch,
		PrefetchDone:  prefetchDone, ResultQueue: results,
		Obs: ob,
		Retry: RetryPolicy{
			MaxAttempts: 3,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  5 * time.Millisecond,
		},
	})
	fs := store.NewMemFS("theta", nil)
	fabric.AddEndpoint("theta", fs)
	ep := faas.NewEndpoint("ep-theta", 2, clk)
	fsvc.RegisterEndpoint(ep)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := ep.Start(ctx); err != nil {
		t.Fatal(err)
	}
	svc.AddSite(&Site{Name: "theta", Store: fs, TransferID: "theta", Compute: ep})
	if err := svc.RegisterExtractors(); err != nil {
		t.Fatal(err)
	}
	_ = fs.Write("/d/a.txt", []byte("some words"))
	_ = fs.Write("/d/b.csv", []byte("a,b\n1,2\n"))

	// The allocation ends before any task dispatches — and no replacement
	// ever arrives. Every dispatch is immediately LOST.
	ep.Stop()

	done := make(chan JobStats, 1)
	errCh := make(chan error, 1)
	go func() {
		stats, err := svc.RunJob(context.Background(), []RepoSpec{{
			SiteName: "theta",
			Roots:    []string{"/d"},
			Grouper:  crawler.SingleFileGrouper(extractors.DefaultLibrary()),
		}})
		if err != nil {
			errCh <- err
			return
		}
		done <- stats
	}()

	var stats JobStats
	select {
	case stats = <-done:
	case err := <-errCh:
		t.Fatal(err)
	case <-time.After(30 * time.Second):
		t.Fatal("job hung: bounded retry did not converge")
	}

	if stats.FamiliesDone != 0 || stats.FamiliesFailed == 0 {
		t.Fatalf("stats = %+v, want all families failed", stats)
	}
	if stats.StepsDeadLettered == 0 || stats.StepsRetried == 0 {
		t.Fatalf("stats = %+v, want retries and dead letters", stats)
	}
	rec, err := svc.cfg.Registry.Job(stats.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != registry.JobFailed {
		t.Fatalf("job state = %s, want FAILED", rec.State)
	}
	if rec.Err == "" {
		t.Fatal("FAILED job record has empty Err")
	}
	if len(rec.DeadLetters) == 0 {
		t.Fatal("job record has no dead letters")
	}
	for _, dl := range rec.DeadLetters {
		if dl.Kind != "step" && dl.Kind != "family" {
			t.Fatalf("unexpected dead-letter kind %q", dl.Kind)
		}
		if dl.Kind == "step" && dl.Attempts < 3 {
			t.Fatalf("step dead-lettered after %d attempts, want >= 3: %+v", dl.Attempts, dl)
		}
	}

	// Metrics surface in the Prometheus exposition.
	var b strings.Builder
	ob.Reg().WritePrometheus(&b)
	text := b.String()
	for _, want := range []string{
		"xtract_retry_total{reason=\"lost\"}",
		"xtract_deadletter_total{kind=\"step\"}",
		"xtract_retry_backoff_seconds_count",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}

	// Trace events record the retry/quarantine lifecycle.
	events, _ := ob.Tracer().Events(stats.JobID)
	var sawRetried, sawDeadLettered bool
	for _, ev := range events {
		switch ev.Type {
		case obs.EvTaskRetried:
			sawRetried = true
		case obs.EvTaskDeadLettered:
			sawDeadLettered = true
		}
	}
	if !sawRetried || !sawDeadLettered {
		t.Fatalf("trace missing retry lifecycle: retried=%v deadlettered=%v", sawRetried, sawDeadLettered)
	}
}

// TestRetryBudgetExhaustion: a tiny job budget dead-letters steps even
// when per-step attempts remain.
func TestRetryBudgetExhaustion(t *testing.T) {
	clk := clock.NewReal()
	fsvc := faas.NewService(clk, faas.Costs{})
	fabric := transfer.NewFabric(clk)
	_, prefetch, prefetchDone, results := NewQueues(clk)
	svc := New(Config{
		Clock: clk, FaaS: fsvc, Fabric: fabric,
		Registry: registry.New(clk, 0), Library: extractors.DefaultLibrary(),
		PrefetchQueue: prefetch,
		PrefetchDone:  prefetchDone, ResultQueue: results,
		Retry: RetryPolicy{
			MaxAttempts: 10,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  2 * time.Millisecond,
			JobBudget:   1,
		},
	})
	fs := store.NewMemFS("theta", nil)
	fabric.AddEndpoint("theta", fs)
	ep := faas.NewEndpoint("ep-theta", 2, clk)
	fsvc.RegisterEndpoint(ep)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := ep.Start(ctx); err != nil {
		t.Fatal(err)
	}
	svc.AddSite(&Site{Name: "theta", Store: fs, TransferID: "theta", Compute: ep})
	if err := svc.RegisterExtractors(); err != nil {
		t.Fatal(err)
	}
	_ = fs.Write("/d/a.txt", []byte("words"))
	_ = fs.Write("/d/b.txt", []byte("more words"))
	ep.Stop()

	stats, err := svc.RunJob(context.Background(), []RepoSpec{{
		SiteName: "theta",
		Roots:    []string{"/d"},
		Grouper:  crawler.SingleFileGrouper(extractors.DefaultLibrary()),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.StepsRetried > 1 {
		t.Fatalf("retried %d steps with a budget of 1", stats.StepsRetried)
	}
	if stats.StepsDeadLettered == 0 {
		t.Fatalf("stats = %+v, want dead letters after budget exhaustion", stats)
	}
}

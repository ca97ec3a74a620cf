package core

import (
	"context"
	"sync"
	"testing"

	"xtract/internal/cache"
	"xtract/internal/crawler"
	"xtract/internal/extractors"
	"xtract/internal/obs"
	"xtract/internal/scheduler"
)

// TestWarmRunServedFromCache is the tentpole end-to-end check: a second
// job over byte-identical content must replay every step from the result
// cache and submit zero FaaS tasks — no extractor runs at all.
func TestWarmRunServedFromCache(t *testing.T) {
	c := cache.New(0)
	h := newHarnessCfg(t, []siteSpec{{name: "theta", workers: 4}}, scheduler.LocalPolicy{},
		func(cfg *Config) { cfg.Cache = c })
	defer h.close()
	seedScience(t, h.sites["theta"], "/mdf")

	run := func(opts JobOptions) JobStats {
		t.Helper()
		stats, err := h.svc.RunJobWithOptions(context.Background(), []RepoSpec{{
			SiteName: "theta",
			Roots:    []string{"/mdf"},
			Grouper:  crawler.MatIOGrouper(extractors.DefaultLibrary()),
		}}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if stats.FamiliesFailed != 0 || stats.StepsDeadLettered != 0 {
			t.Fatalf("job not clean: %+v", stats)
		}
		return stats
	}

	cold := run(JobOptions{})
	if cold.CacheHits != 0 {
		t.Fatalf("cold run hit the cache %d times", cold.CacheHits)
	}
	if cold.CacheMisses == 0 || cold.StepsProcessed == 0 {
		t.Fatalf("cold run did no cacheable work: %+v", cold)
	}
	coldTasks := h.fsvc.TasksSubmitted.Value()
	if coldTasks == 0 {
		t.Fatal("cold run submitted no FaaS tasks")
	}

	warm := run(JobOptions{})
	if warm.CacheMisses != 0 {
		t.Fatalf("warm run missed the cache %d times", warm.CacheMisses)
	}
	if warm.CacheHits == 0 || warm.CacheHits != warm.StepsProcessed {
		t.Fatalf("warm run not fully cached: hits=%d steps=%d", warm.CacheHits, warm.StepsProcessed)
	}
	if warm.StepsProcessed != cold.StepsProcessed {
		t.Fatalf("warm steps %d != cold steps %d", warm.StepsProcessed, cold.StepsProcessed)
	}
	if warm.FamiliesDone != cold.FamiliesDone {
		t.Fatalf("warm families %d != cold families %d", warm.FamiliesDone, cold.FamiliesDone)
	}
	if got := h.fsvc.TasksSubmitted.Value(); got != coldTasks {
		t.Fatalf("warm run submitted %d FaaS tasks (zero extractor invocations required)", got-coldTasks)
	}

	// Warm runs must produce the same validated output as cold runs.
	h.valsvc.Drain()
	docs, err := h.dest.List("/metadata")
	if err != nil || len(docs) == 0 {
		t.Fatalf("no validated documents after warm run: %v", err)
	}

	// NoCache opts the third run out entirely: fresh extractions, no
	// lookups, no write-backs counted against the job.
	before := c.Stats()
	bypass := run(JobOptions{NoCache: true})
	if bypass.CacheHits != 0 || bypass.CacheMisses != 0 {
		t.Fatalf("NoCache run touched the cache: %+v", bypass)
	}
	if got := h.fsvc.TasksSubmitted.Value(); got == coldTasks {
		t.Fatal("NoCache run submitted no FaaS tasks")
	}
	after := c.Stats()
	if after.Hits != before.Hits || after.Misses != before.Misses {
		t.Fatalf("NoCache run moved cache counters: %+v -> %+v", before, after)
	}
}

// TestCacheMetricsAndEvents checks the observability wiring: hit/miss
// counters on the registry and step_cache_hit events in the job trace.
func TestCacheMetricsAndEvents(t *testing.T) {
	c := cache.New(0)
	h := newHarnessCfg(t, []siteSpec{{name: "theta", workers: 4}}, scheduler.LocalPolicy{},
		func(cfg *Config) {
			cfg.Cache = c
			cfg.Obs = obs.New(cfg.Clock)
		})
	defer h.close()
	seedScience(t, h.sites["theta"], "/mdf")

	repo := []RepoSpec{{
		SiteName: "theta",
		Roots:    []string{"/mdf"},
		Grouper:  crawler.MatIOGrouper(extractors.DefaultLibrary()),
	}}
	if _, err := h.svc.RunJob(context.Background(), repo); err != nil {
		t.Fatal(err)
	}
	warm, err := h.svc.RunJob(context.Background(), repo)
	if err != nil {
		t.Fatal(err)
	}

	if got := int64(h.svc.obsCacheHits.Value()); got != warm.CacheHits {
		t.Fatalf("xtract_cache_hits_total = %d, want %d", got, warm.CacheHits)
	}
	if h.svc.obsCacheMisses.Value() == 0 {
		t.Fatal("xtract_cache_misses_total never moved")
	}
	events, _ := h.svc.obs.Tracer().Events(warm.JobID)
	var cacheHits, dispatched int
	for _, ev := range events {
		switch ev.Type {
		case "step_cache_hit":
			cacheHits++
		case "batch_dispatched":
			dispatched++
		}
	}
	if int64(cacheHits) != warm.CacheHits {
		t.Fatalf("trace has %d step_cache_hit events, want %d", cacheHits, warm.CacheHits)
	}
	if dispatched != 0 {
		t.Fatalf("warm run trace has %d batch_dispatched events", dispatched)
	}

	stats, ok := h.svc.CacheStats()
	if !ok || stats.Hits == 0 {
		t.Fatalf("CacheStats = %+v, %v", stats, ok)
	}
}

// TestConcurrentJobStatsIsolation runs two jobs at once on one service
// and checks each reports only its own work. Before the pump-local
// counters, JobStats read the service-lifetime aggregates, so whichever
// job finished second reported both jobs' families, steps, and bytes.
func TestConcurrentJobStatsIsolation(t *testing.T) {
	h := newHarness(t, []siteSpec{
		{name: "alpha", workers: 4},
		{name: "beta", workers: 4},
	}, scheduler.LocalPolicy{})
	defer h.close()
	seedScience(t, h.sites["alpha"], "/mdf")
	// beta gets a different (larger) corpus so equal-by-coincidence
	// cannot mask cross-contamination.
	seedScience(t, h.sites["beta"], "/mdf")
	seedScience(t, h.sites["beta"], "/mdf2")

	runSite := func(site string, out *JobStats, errOut *error, wg *sync.WaitGroup) {
		defer wg.Done()
		stats, err := h.svc.RunJob(context.Background(), []RepoSpec{{
			SiteName: site,
			Roots:    []string{"/"},
			Grouper:  crawler.MatIOGrouper(extractors.DefaultLibrary()),
		}})
		*out, *errOut = stats, err
	}
	var wg sync.WaitGroup
	var a, b JobStats
	var aErr, bErr error
	wg.Add(2)
	go runSite("alpha", &a, &aErr, &wg)
	go runSite("beta", &b, &bErr, &wg)
	wg.Wait()
	if aErr != nil || bErr != nil {
		t.Fatalf("job errors: %v / %v", aErr, bErr)
	}

	for _, st := range []*JobStats{&a, &b} {
		if st.FamiliesDone == 0 || st.FamiliesDone != st.Crawl.FamiliesEmitted {
			t.Fatalf("job %s: families done %d != emitted %d (cross-job leak?)",
				st.JobID, st.FamiliesDone, st.Crawl.FamiliesEmitted)
		}
		if st.StepsProcessed == 0 || st.StepsFailed != 0 {
			t.Fatalf("job %s: steps %d failed %d", st.JobID, st.StepsProcessed, st.StepsFailed)
		}
	}
	if a.FamiliesDone >= b.FamiliesDone {
		t.Fatalf("corpora should differ: alpha %d vs beta %d families", a.FamiliesDone, b.FamiliesDone)
	}
	// The service-level counters stay as aggregates: exactly the sum.
	if got := h.svc.FamiliesDone.Value(); got != a.FamiliesDone+b.FamiliesDone {
		t.Fatalf("service families %d != %d + %d", got, a.FamiliesDone, b.FamiliesDone)
	}
	if got := h.svc.GroupsProcessed.Value(); got != a.StepsProcessed+b.StepsProcessed {
		t.Fatalf("service steps %d != %d + %d", got, a.StepsProcessed, b.StepsProcessed)
	}
}

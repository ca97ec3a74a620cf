package core

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"xtract/internal/cache"
	"xtract/internal/journal"
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
	seedScience(t, h.sites["theta"], "/mdf")

	run := func(noCache bool) JobStats {
		t.Helper()
		stats, err := runSpec(h.svc, context.Background(), journal.JobSpec{NoCache: noCache, Repos: []journal.RepoSpec{{
			Site:    "theta",
			Roots:   []string{"/mdf"},
			Grouper: "matio",
		}}})
		if err != nil {
			t.Fatal(err)
		}
		if stats.FamiliesFailed != 0 || stats.StepsDeadLettered != 0 {
			t.Fatalf("job not clean: %+v", stats)
		}
		return stats
	}

	cold := run(false)
	if cold.CacheHits != 0 {
		t.Fatalf("cold run hit the cache %d times", cold.CacheHits)
	}
	if cold.CacheMisses == 0 || cold.StepsProcessed == 0 {
		t.Fatalf("cold run did no cacheable work: %+v", cold)
	}
	coldTasks := h.fsvc.TasksSubmitted.Load()
	if coldTasks == 0 {
		t.Fatal("cold run submitted no FaaS tasks")
	}

	warm := run(false)
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
	if got := h.fsvc.TasksSubmitted.Load(); got != coldTasks {
		t.Fatalf("warm run submitted %d FaaS tasks (zero extractor invocations required)", got-coldTasks)
	}

	// Warm runs must produce the same validated output as cold runs.
	docs, err := h.dest.List("/metadata")
	if err != nil || len(docs) == 0 {
		t.Fatalf("no validated documents after warm run: %v", err)
	}

	// NoCache opts the third run out entirely: fresh extractions, no
	// lookups, no write-backs counted against the job.
	before := c.Stats()
	bypass := run(true)
	if bypass.CacheHits != 0 || bypass.CacheMisses != 0 {
		t.Fatalf("NoCache run touched the cache: %+v", bypass)
	}
	if got := h.fsvc.TasksSubmitted.Load(); got == coldTasks {
		t.Fatal("NoCache run submitted no FaaS tasks")
	}
	after := c.Stats()
	if after.Hits != before.Hits || after.Misses != before.Misses {
		t.Fatalf("NoCache run moved cache counters: %+v -> %+v", before, after)
	}
}

// TestWarmJobReadsNoSourceBytes: with the fingerprint memo a job over an
// unchanged repository reads nothing from the source store; one file
// overwritten at the same size on a frozen clock costs exactly that
// file's crawl read plus the re-extraction of the steps over its group.
func TestWarmJobReadsNoSourceBytes(t *testing.T) {
	c := cache.New(0)
	frozen := func() time.Time { return time.Unix(1_600_000_000, 0) }
	h := newHarnessCfg(t, []siteSpec{{name: "theta", workers: 4, now: frozen}}, scheduler.LocalPolicy{},
		func(cfg *Config) { cfg.Cache = c })
	src := h.sites["theta"]
	files := int64(seedScience(t, src, "/mdf"))

	var jobs int64
	// run returns the job's statistics, the source bytes it read and the
	// destination documents as they stand once the job's are all written.
	run := func(noCache bool) (JobStats, int64, map[string]string) {
		t.Helper()
		before, _ := src.Traffic()
		stats, err := runSpec(h.svc, context.Background(), journal.JobSpec{NoCache: noCache, Repos: []journal.RepoSpec{{
			Site:    "theta",
			Roots:   []string{"/mdf"},
			Grouper: "matio",
		}}})
		if err != nil {
			t.Fatal(err)
		}
		if stats.FamiliesFailed != 0 || stats.StepsFailed != 0 || stats.Crawl.FingerprintErrors != 0 {
			t.Fatalf("job not clean: %+v", stats)
		}
		jobs++
		if n := h.valsvc.Validated.Load(); n != jobs*stats.FamiliesDone {
			t.Fatalf("validated %d documents, want %d", n, jobs*stats.FamiliesDone)
		}
		infos, err := h.dest.List("/metadata")
		if err != nil {
			t.Fatal(err)
		}
		docs := make(map[string]string, len(infos))
		for _, fi := range infos {
			doc, err := h.dest.Read(fi.Path)
			if err != nil {
				t.Fatal(err)
			}
			docs[fi.Path] = string(doc)
		}
		after, _ := src.Traffic()
		return stats, after - before, docs
	}

	cold, coldRead, coldDocs := run(false)
	if cold.Crawl.FilesHashed != files || cold.Crawl.HashesReused != 0 || cold.CacheHits != 0 || coldRead == 0 {
		t.Fatalf("cold job: %+v read %d bytes", cold, coldRead)
	}
	if int64(len(coldDocs)) != cold.FamiliesDone {
		t.Fatalf("%d documents for %d families", len(coldDocs), cold.FamiliesDone)
	}

	wantWarm := func(name string, stats JobStats, read int64, docs map[string]string, tasksBefore int64) {
		t.Helper()
		if read != 0 {
			t.Errorf("%s job read %d source bytes, want 0", name, read)
		}
		if stats.Crawl.FilesHashed != 0 || stats.Crawl.HashesReused != files {
			t.Errorf("%s crawl hashed %d files and reused %d of %d", name, stats.Crawl.FilesHashed, stats.Crawl.HashesReused, files)
		}
		if stats.CacheMisses != 0 || stats.CacheHits != cold.StepsProcessed || stats.StepsProcessed != cold.StepsProcessed {
			t.Errorf("%s job: hits=%d misses=%d steps=%d, cold steps %d", name, stats.CacheHits, stats.CacheMisses, stats.StepsProcessed, cold.StepsProcessed)
		}
		if got := h.fsvc.TasksSubmitted.Load(); got != tasksBefore {
			t.Errorf("%s job submitted %d FaaS tasks", name, got-tasksBefore)
		}
		if len(docs) != len(coldDocs) {
			t.Errorf("%s job left %d documents, cold %d", name, len(docs), len(coldDocs))
		}
		for p, doc := range coldDocs {
			if docs[p] != doc {
				t.Errorf("%s job changed %s:\n cold %s\n now  %s", name, p, doc, docs[p])
			}
		}
	}
	tasks := h.fsvc.TasksSubmitted.Load()
	warm, warmRead, warmDocs := run(false)
	wantWarm("warm", warm, warmRead, warmDocs, tasks)

	// A NoCache job fingerprints nothing: the memo's counters stand still
	// and the warm job after it still reads nothing.
	memoBefore := c.Stats()
	bypass, bypassRead, _ := run(true)
	if bypass.Crawl.FilesHashed != 0 || bypass.Crawl.HashesReused != 0 || bypassRead == 0 {
		t.Fatalf("NoCache job: crawl %+v, read %d bytes", bypass.Crawl, bypassRead)
	}
	if memoAfter := c.Stats(); memoAfter.FileHashes != memoBefore.FileHashes || memoAfter.FileHashHits != memoBefore.FileHashHits {
		t.Fatalf("NoCache job moved the memo: %+v -> %+v", memoBefore, memoAfter)
	}
	tasks = h.fsvc.TasksSubmitted.Load()
	again, againRead, againDocs := run(false)
	wantWarm("post-NoCache warm", again, againRead, againDocs, tasks)

	// Same size, same ModTime, different bytes: only the token tells.
	const target = "/mdf/exp2/data.csv"
	before, _ := src.Stat(target)
	if err := src.Write(target, []byte("x,y\n9,8\n7,6\n5,4\n")); err != nil {
		t.Fatal(err)
	}
	after, _ := src.Stat(target)
	if after.Size != before.Size || !after.ModTime.Equal(before.ModTime) {
		t.Fatalf("test wants size and mtime unchanged: %+v -> %+v", before, after)
	}
	changed, changedRead, changedDocs := run(false)
	if changed.Crawl.FilesHashed != 1 || changed.Crawl.HashesReused != files-1 {
		t.Fatalf("crawl after the overwrite hashed %d files and reused %d", changed.Crawl.FilesHashed, changed.Crawl.HashesReused)
	}
	// The file is the only member of its group, so the source is read
	// once by the crawl and once by each step re-extracted over it.
	if changed.CacheMisses == 0 || changed.CacheHits+changed.CacheMisses != cold.StepsProcessed {
		t.Fatalf("job after the overwrite: hits=%d misses=%d, cold steps %d", changed.CacheHits, changed.CacheMisses, cold.StepsProcessed)
	}
	if want := after.Size * (1 + changed.CacheMisses); changedRead != want {
		t.Fatalf("job after the overwrite read %d source bytes, want %d (the file, 1+%d times)", changedRead, want, changed.CacheMisses)
	}
	var differ []string
	for p, doc := range coldDocs {
		if changedDocs[p] != doc {
			differ = append(differ, p)
		}
	}
	if len(differ) != 1 || len(changedDocs) != len(coldDocs) {
		t.Fatalf("documents that changed: %v", differ)
	}
	var doc struct {
		Files    []string                   `json:"files"`
		Metadata map[string]json.RawMessage `json:"metadata"`
	}
	if err := json.Unmarshal([]byte(changedDocs[differ[0]]), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Files) != 1 || doc.Files[0] != target {
		t.Fatalf("the changed document covers %v, want only %s", doc.Files, target)
	}
	// Every step of that family runs over the overwritten file's group.
	if int64(len(doc.Metadata)) != changed.CacheMisses {
		t.Fatalf("%d steps missed, the file's family has %d", changed.CacheMisses, len(doc.Metadata))
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
	seedScience(t, h.sites["theta"], "/mdf")

	repo := []journal.RepoSpec{{
		Site:    "theta",
		Roots:   []string{"/mdf"},
		Grouper: "matio",
	}}
	if _, err := h.svc.RunJob(context.Background(), repo); err != nil {
		t.Fatal(err)
	}
	warm, err := h.svc.RunJob(context.Background(), repo)
	if err != nil {
		t.Fatal(err)
	}

	if got := int64(scrape(t, h.svc.obs.Reg(), "xtract_cache_hits_total")); got != warm.CacheHits {
		t.Fatalf("xtract_cache_hits_total = %d, want %d", got, warm.CacheHits)
	}
	if scrape(t, h.svc.obs.Reg(), "xtract_cache_misses_total") == 0 {
		t.Fatal("xtract_cache_misses_total never moved")
	}
	// Two crawls of one corpus: the first hashed it, the second reused it.
	if hashed, reused := h.svc.crawlTotals.FilesHashed.Load(), h.svc.crawlTotals.HashesReused.Load(); hashed != warm.Crawl.FilesSeen || reused != warm.Crawl.FilesSeen || h.svc.crawlTotals.FingerprintErrors.Load() != 0 {
		t.Fatalf("fingerprint reads = %d, reused = %d, want %d each", hashed, reused, warm.Crawl.FilesSeen)
	}
	events, _ := h.svc.obs.Events(warm.JobID)
	var cacheHits, dispatched int
	for _, ev := range events {
		switch ev.Type {
		case "crawl_finished":
			if ev.Attrs["hashed"] != int64(0) || ev.Attrs["reused"] != warm.Crawl.FilesSeen || ev.Attrs["fingerprint_errors"] != int64(0) {
				t.Fatalf("crawl_finished attrs = %v, want hashed 0, reused %d, fingerprint_errors 0", ev.Attrs, warm.Crawl.FilesSeen)
			}
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
	h := newHarnessCfg(t, []siteSpec{
		{name: "alpha", workers: 4},
		{name: "beta", workers: 4},
	}, scheduler.LocalPolicy{}, func(cfg *Config) { cfg.Obs = obs.New(cfg.Clock) })
	seedScience(t, h.sites["alpha"], "/mdf")
	// beta gets a different (larger) corpus so equal-by-coincidence
	// cannot mask cross-contamination.
	seedScience(t, h.sites["beta"], "/mdf")
	seedScience(t, h.sites["beta"], "/mdf2")

	runSite := func(site string, out *JobStats, errOut *error, wg *sync.WaitGroup) {
		defer wg.Done()
		stats, err := h.svc.RunJob(context.Background(), []journal.RepoSpec{{
			Site:    site,
			Roots:   []string{"/"},
			Grouper: "matio",
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
	if got := totals(h.svc).FamiliesDone; got != a.FamiliesDone+b.FamiliesDone {
		t.Fatalf("service families %d != %d + %d", got, a.FamiliesDone, b.FamiliesDone)
	}
	if got := totals(h.svc).StepsProcessed; got != a.StepsProcessed+b.StepsProcessed {
		t.Fatalf("service steps %d != %d + %d", got, a.StepsProcessed, b.StepsProcessed)
	}
}

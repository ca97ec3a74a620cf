package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xtract/internal/cache"
	"xtract/internal/crawler"
	"xtract/internal/extractors"
	"xtract/internal/family"
	"xtract/internal/journal"
	"xtract/internal/registry"
	"xtract/internal/scheduler"
	"xtract/internal/store"
)

// countedStore counts the List and Read calls that reach a site's store.
type countedStore struct {
	store.Store
	lists, reads atomic.Int64
}

func (c *countedStore) List(dir string) ([]store.FileInfo, error) {
	c.lists.Add(1)
	return c.Store.List(dir)
}

func (c *countedStore) Read(p string) ([]byte, error) {
	c.reads.Add(1)
	return c.Store.Read(p)
}

// countSite puts a counter in front of a harness site's store. Call it
// before the first job.
func countSite(t *testing.T, h *harness, name string) *countedStore {
	t.Helper()
	site, ok := h.svc.Site(name)
	if !ok {
		t.Fatalf("no site %s", name)
	}
	cs := &countedStore{Store: site.Store}
	site.Store = cs
	return cs
}

// seedFlat writes dirs directories of perDir small text files under /r.
func seedFlat(t *testing.T, fs *store.MemFS, dirs, perDir int) {
	t.Helper()
	for d := 0; d < dirs; d++ {
		for f := 0; f < perDir; f++ {
			if err := fs.Write(fmt.Sprintf("/r/d%04d/f%02d.txt", d, f), []byte("perovskite absorber notes")); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func flatRepo(site string, workers int) RepoSpec {
	return RepoSpec{
		SiteName: site, Roots: []string{"/r"}, CrawlWorkers: workers,
		Grouper: crawler.SingleFileGrouper(extractors.DefaultLibrary()),
	}
}

// withCache gives the harness service a result cache, so crawls
// fingerprint and a second job over the same files is all hits.
func withCache(cfg *Config) { cfg.Cache = cache.New(0) }

// parkPolicy parks the pump goroutine inside placeFamily on the first
// family it is asked about, until release closes.
type parkPolicy struct {
	scheduler.LocalPolicy
	once             sync.Once
	entered, release chan struct{}
}

func newParkPolicy() *parkPolicy {
	return &parkPolicy{entered: make(chan struct{}), release: make(chan struct{})}
}

func (p *parkPolicy) Place(fam *family.Family, home scheduler.SiteState, alts []scheduler.SiteState) string {
	p.once.Do(func() {
		close(p.entered)
		<-p.release
	})
	return p.LocalPolicy.Place(fam, home, alts)
}

// eventually polls cond until it holds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("never happened: %s", what)
		}
	}
}

// parkedLists is how many listings a crawl over seedFlat's tree makes
// before it stands still behind a pump that holds its first directory:
// the root, that directory, a full hand-off, and one directory in the
// hands of every worker.
func parkedLists(workers int) int64 { return int64(2 + handoffDirs + workers) }

// TestCrawlWaitsForThePump: with the pump parked on its first family the
// crawl lists exactly as far as the hand-off's bound lets it and stops
// there, however large the repository — so what the job holds on the heap
// does not grow with the repository either. Released, the job finishes
// with every document.
func TestCrawlWaitsForThePump(t *testing.T) {
	const workers, perDir = 4, 8
	parkedHeap := func(dirs int) uint64 {
		policy := newParkPolicy()
		h := newHarness(t, []siteSpec{{name: "theta", workers: 4}}, policy)
		defer h.close()
		seedFlat(t, h.sites["theta"], dirs, perDir)
		src := countSite(t, h, "theta")
		runtime.GC()
		runtime.GC() // the second collects what the first's finalizers let go
		var before, parked runtime.MemStats
		runtime.ReadMemStats(&before)

		type result struct {
			stats JobStats
			err   error
		}
		done := make(chan result, 1)
		go func() {
			stats, err := h.svc.RunJob(context.Background(), []RepoSpec{flatRepo("theta", workers)})
			done <- result{stats, err}
		}()
		<-policy.entered
		eventually(t, "the crawl standing still at the hand-off's bound", func() bool {
			return src.lists.Load() >= parkedLists(workers)
		})
		time.Sleep(5 * time.Millisecond) // a crawl that does not wait would move on meanwhile
		if got := src.lists.Load(); got != parkedLists(workers) {
			t.Fatalf("%d-directory repository: %d listings behind a parked pump, want %d", dirs, got, parkedLists(workers))
		}
		runtime.GC()
		runtime.ReadMemStats(&parked)

		close(policy.release)
		r := <-done
		if want := int64(dirs * perDir); r.err != nil || r.stats.FamiliesDone != want || r.stats.FamiliesFailed != 0 {
			t.Fatalf("released job = %+v, %v; want %d families done", r.stats, r.err, want)
		}
		eventually(t, "every document at the destination", func() bool {
			infos, _ := h.dest.List("/metadata")
			return len(infos) == dirs*perDir
		})
		if parked.HeapAlloc < before.HeapAlloc {
			return 0
		}
		return parked.HeapAlloc - before.HeapAlloc
	}
	small, large := parkedHeap(64), parkedHeap(512)
	t.Logf("heap held behind a parked pump: %d B over 64 directories, %d B over 512", small, large)
	// Unbounded, the 448 directories more are 3,584 families more on the
	// heap, some 4 MB; bounded, both hold the same 38 directories' worth.
	if large > small+(1<<20) {
		t.Fatalf("parked heap grew with the repository: %d B over 64 directories, %d B over 512", small, large)
	}
}

// TestBatchTakenInAwaitIsFlushed: families that arrive while the pump is
// blocked in await are worked off there, results included. Left for the
// loop's next pass, a job's last families would finish with their records
// never leaving the pump: that pass finds nothing to do and flushes nothing.
func TestBatchTakenInAwaitIsFlushed(t *testing.T) {
	h := newHarness(t, []siteSpec{{name: "alpha", workers: 1}}, scheduler.LocalPolicy{})
	defer h.close()
	p := barePump(h, "test-await")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p.jobCtx = ctx
	// No group, so no step: the family finishes inside its placement.
	p.offerFamilies(ctx, []family.Family{{ID: "alpha:/d#0", Store: "alpha", BasePath: "/d"}})
	sentBefore, _ := h.svc.cfg.ResultQueue.Stats()

	woke, err := p.await(ctx)
	if err != nil || woke != "families" {
		t.Fatalf("await = %q, %v; want families", woke, err)
	}
	if p.FamiliesDone != 1 {
		t.Fatalf("FamiliesDone = %d, want 1", p.FamiliesDone)
	}
	if sent, _ := h.svc.cfg.ResultQueue.Stats(); sent != sentBefore+1 || len(p.pendingResults) != 0 {
		t.Fatalf("%d results sent, %d still in the pump; want 1, 0", sent-sentBefore, len(p.pendingResults))
	}
	if p.intakeFamilies() {
		t.Fatal("the next pass found families on an empty hand-off")
	}
}

// gatedStore holds the listing of one directory until open closes.
type gatedStore struct {
	store.Store
	dir  string
	open chan struct{}
}

func (g *gatedStore) List(dir string) ([]store.FileInfo, error) {
	if dir == g.dir {
		<-g.open
	}
	return g.Store.List(dir)
}

// TestLastFamiliesArriveWhileThePumpWaits is the same from outside: a warm
// job whose last directory is listed only once everything before it has
// reached the destination — with the pump, by then, waiting in await —
// completes with all its documents.
func TestLastFamiliesArriveWhileThePumpWaits(t *testing.T) {
	h := newHarnessCfg(t, []siteSpec{{name: "theta", workers: 2}}, scheduler.LocalPolicy{}, withCache)
	defer h.close()
	fs := h.sites["theta"]
	for _, p := range []string{"/w/a/one.txt", "/w/b/two.txt"} {
		if err := fs.Write(p, []byte("notes on "+p)); err != nil {
			t.Fatal(err)
		}
	}
	site, _ := h.svc.Site("theta")
	gate := &gatedStore{Store: site.Store, dir: "/w/b", open: make(chan struct{})}
	close(gate.open)
	site.Store = gate
	repos := []RepoSpec{{SiteName: "theta", Roots: []string{"/w"}, CrawlWorkers: 2,
		Grouper: crawler.SingleFileGrouper(extractors.DefaultLibrary())}}
	docs := func() int {
		infos, _ := h.dest.List("/metadata")
		return len(infos)
	}
	if _, err := h.svc.RunJob(context.Background(), repos); err != nil { // cold: fills the cache
		t.Fatal(err)
	}
	eventually(t, "the cold job's documents", func() bool { return docs() == 2 })
	infos, _ := h.dest.List("/metadata")
	for _, fi := range infos {
		if err := h.dest.Delete(fi.Path); err != nil {
			t.Fatal(err)
		}
	}

	gate.open = make(chan struct{})
	done := make(chan error, 1)
	go func() {
		stats, err := h.svc.RunJob(context.Background(), repos)
		if err == nil && (stats.FamiliesDone != 2 || stats.CacheHits != stats.StepsProcessed) {
			err = fmt.Errorf("warm job = %+v; want 2 families from the cache", stats)
		}
		done <- err
	}()
	eventually(t, "the first directory's document", func() bool { return docs() == 1 })
	close(gate.open)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("the job never ended: its last families' results did not leave the pump")
	}
	eventually(t, "both documents", func() bool { return docs() == 2 })
}

// TestCrawlStopsWhenTheJobEnds: a job's crawls run under the job's own
// context, so every way a job ends stops them — no listing or read
// reaches the store afterwards, no goroutine stays behind — including a
// crawl worker waiting on a full hand-off nobody will read again.
func TestCrawlStopsWhenTheJobEnds(t *testing.T) {
	const dirs, workers = 2000, 4
	// stopped is called as soon as the job has ended. From then on each
	// crawl worker may finish the one directory it was in, and that is all
	// — however long the goroutines take to go, and go they must. A pump
	// that ran leaves extractor tasks behind that still read.
	stopped := func(t *testing.T, src *countedStore, goroutines int, pumped bool) {
		t.Helper()
		lists, reads := src.lists.Load(), src.reads.Load()
		eventually(t, "the job's goroutines exiting", func() bool { return runtime.NumGoroutine() <= goroutines })
		time.Sleep(5 * time.Millisecond)
		if now := src.lists.Load(); now > lists+workers || now > dirs/2 {
			t.Fatalf("%d listings when the job ended, %d afterwards: the crawl of %d directories ran on", lists, now, dirs)
		}
		if now := src.reads.Load(); !pumped && now > reads+workers {
			t.Fatalf("%d reads when the job ended, %d afterwards: the crawl went on fingerprinting", reads, now)
		}
	}
	setup := func(t *testing.T, policy scheduler.Policy) (*harness, *countedStore, int) {
		h := newHarnessCfg(t, []siteSpec{{name: "theta", workers: 2}}, policy, withCache) // the crawl fingerprints: it reads
		seedFlat(t, h.sites["theta"], dirs, 1)
		return h, countSite(t, h, "theta"), runtime.NumGoroutine()
	}

	t.Run("a later repository names an unknown site", func(t *testing.T) {
		h, src, goroutines := setup(t, scheduler.LocalPolicy{})
		defer h.close()
		stats, err := h.svc.RunJob(context.Background(), []RepoSpec{flatRepo("theta", workers), flatRepo("nowhere", workers)})
		if err == nil || !strings.Contains(err.Error(), `unknown site "nowhere"`) {
			t.Fatalf("RunJob = %v; want the unknown-site error", err)
		}
		stopped(t, src, goroutines, false)
		if rec, err := h.svc.cfg.Registry.Job(stats.JobID); err != nil || rec.State != registry.JobFailed {
			t.Fatalf("job record = %+v, %v; want FAILED", rec, err)
		}
	})

	t.Run("another crawl fails", func(t *testing.T) {
		h, src, goroutines := setup(t, scheduler.LocalPolicy{})
		defer h.close()
		broken := flatRepo("theta", workers)
		broken.Grouper = nil
		if _, err := h.svc.RunJob(context.Background(), []RepoSpec{flatRepo("theta", workers), broken}); err == nil ||
			!strings.Contains(err.Error(), "nil grouping function") {
			t.Fatalf("RunJob = %v; want the crawl's error", err)
		}
		stopped(t, src, goroutines, true)
	})

	t.Run("the pump exits with a worker parked on the full hand-off", func(t *testing.T) {
		h, src, goroutines := setup(t, scheduler.LocalPolicy{})
		defer h.close()
		p := barePump(h, "test-early-exit")
		var cancelJob context.CancelFunc
		p.jobCtx, cancelJob = context.WithCancel(context.Background())
		if err := p.startCrawls([]RepoSpec{flatRepo("theta", workers)}); err != nil {
			t.Fatal(err)
		}
		// Nobody takes anything: one listing fewer than behind a pump that
		// holds a directory.
		eventually(t, "every crawl worker parked", func() bool { return src.lists.Load() == parkedLists(workers)-1 })
		p.teardown(cancelJob)
		stopped(t, src, goroutines, false)
		if err := <-p.crawlErr; !errors.Is(err, context.Canceled) {
			t.Fatalf("the parked crawl ended with %v, want context.Canceled", err)
		}
	})

	// DELETE /jobs/{id} is this: the API cancels the context it ran the job under.
	t.Run("the job is cancelled with a worker parked on the full hand-off", func(t *testing.T) {
		policy := newParkPolicy()
		h, src, goroutines := setup(t, policy)
		defer h.close()
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := h.svc.RunJob(ctx, []RepoSpec{flatRepo("theta", workers)})
			done <- err
		}()
		<-policy.entered
		eventually(t, "every crawl worker parked", func() bool { return src.lists.Load() == parkedLists(workers) })
		cancel()
		close(policy.release)
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("RunJob = %v, want context.Canceled", err)
		}
		stopped(t, src, goroutines, true)
	})
}

// TestOverlappingRootsRunEachFamilyOnce: roots that overlap crawl a
// directory twice and hand its families over twice; the job extracts,
// bills and journals each once.
func TestOverlappingRootsRunEachFamilyOnce(t *testing.T) {
	jnl, err := journal.Open(journal.StoreDir(store.NewMemFS("journal-disk", nil), "/wal"), journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := newHarnessCfg(t, []siteSpec{{name: "theta", workers: 4}}, scheduler.LocalPolicy{},
		func(cfg *Config) { cfg.Journal = jnl })
	defer h.close()
	var mu sync.Mutex
	journaled := map[string]int64{}
	jnl.Observe(func(recType string) {
		mu.Lock()
		journaled[recType]++
		mu.Unlock()
	}, nil)
	seedScience(t, h.sites["theta"], "/mdf")
	run := func(roots ...string) JobStats {
		t.Helper()
		stats, err := h.svc.RunJob(context.Background(), []RepoSpec{{SiteName: "theta", Roots: roots,
			Grouper: crawler.SingleFileGrouper(extractors.DefaultLibrary())}})
		if err != nil || stats.FamiliesFailed != 0 {
			t.Fatalf("job over %v = %+v, %v", roots, stats, err)
		}
		return stats
	}
	once := run("/mdf")
	mu.Lock()
	enqueuedOnce, stepsOnce := journaled[journal.RecFamilyEnqueued], journaled[journal.RecStepCompleted]
	mu.Unlock()
	twice := run("/mdf", "/mdf/exp1", "/mdf/exp2")
	if twice.Crawl.FamiliesEmitted <= once.Crawl.FamiliesEmitted {
		t.Fatalf("overlapping roots emitted %d families, one root %d: nothing was delivered twice",
			twice.Crawl.FamiliesEmitted, once.Crawl.FamiliesEmitted)
	}
	if twice.FamiliesDone != once.FamiliesDone || twice.StepsProcessed != once.StepsProcessed {
		t.Fatalf("overlapping roots: %d families, %d steps; one root: %d, %d",
			twice.FamiliesDone, twice.StepsProcessed, once.FamiliesDone, once.StepsProcessed)
	}
	mu.Lock()
	defer mu.Unlock()
	if e, s := journaled[journal.RecFamilyEnqueued]-enqueuedOnce, journaled[journal.RecStepCompleted]-stepsOnce; e != enqueuedOnce || s != stepsOnce {
		t.Fatalf("overlapping roots journaled %d families and %d steps, one root %d and %d", e, s, enqueuedOnce, stepsOnce)
	}
}

// A job whose crawl finds no family ends, COMPLETE, with nothing done.
func TestJobWithoutFamiliesTerminates(t *testing.T) {
	h := newHarness(t, []siteSpec{{name: "theta", workers: 1}}, scheduler.LocalPolicy{})
	defer h.close()
	type result struct {
		stats JobStats
		err   error
	}
	done := make(chan result, 1)
	go func() {
		stats, err := h.svc.RunJob(context.Background(), []RepoSpec{flatRepo("theta", 2)})
		done <- result{stats, err}
	}()
	select {
	case r := <-done:
		if r.err != nil || r.stats.FamiliesDone != 0 || r.stats.Crawl.FamiliesEmitted != 0 {
			t.Fatalf("job over an empty repository = %+v, %v", r.stats, r.err)
		}
		if rec, err := h.svc.cfg.Registry.Job(r.stats.JobID); err != nil || rec.State != registry.JobComplete {
			t.Fatalf("job record = %+v, %v; want COMPLETE", rec, err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("a job with no families never ended")
	}
}

// TestIntakeCostIsPerFamilyNotPerFile: families cross the hand-off as the
// values the crawler built, so taking one in costs the pump the same few
// allocations whether it names one file or sixty-four with long metadata —
// no path, hash or type string is created again on the way.
func TestIntakeCostIsPerFamilyNotPerFile(t *testing.T) {
	h := newHarness(t, []siteSpec{{name: "alpha", workers: 1}}, scheduler.LocalPolicy{})
	defer h.close()
	const runs, perBatch = 20, 16
	perFamily := func(files int) float64 {
		p := barePump(h, fmt.Sprintf("test-intake-%d", files))
		batches := make([][]family.Family, runs+1) // AllocsPerRun warms up once
		for b := range batches {
			for i := 0; i < perBatch; i++ {
				fam := family.Family{ID: fmt.Sprintf("alpha:/d%d#%d", b, i), Store: "alpha", BasePath: fmt.Sprintf("/d%d", b),
					FileMeta: make(map[string]family.FileMeta, files)}
				for f := 0; f < files; f++ {
					path := fmt.Sprintf("/d%d/%d/%s-%04d.dat", b, i, strings.Repeat("long-name", 8), f)
					fam.Files = append(fam.Files, path)
					fam.FileMeta[path] = family.FileMeta{Size: int64(f), Extension: "dat",
						MimeType: "application/octet-stream", ContentHash: strings.Repeat("ab", 32)}
				}
				batches[b] = append(batches[b], fam)
			}
		}
		next := 0
		allocs := testing.AllocsPerRun(runs, func() {
			p.offerFamilies(context.Background(), batches[next])
			next++
			if !p.intakeFamilies() || len(p.pendingResults) != perBatch {
				t.Fatalf("intake finished %d of %d families", len(p.pendingResults), perBatch)
			}
			p.pendingResults, p.resultBuf = p.pendingResults[:0], p.resultBuf[:0]
		})
		return allocs / perBatch
	}
	one, many := perFamily(1), perFamily(64)
	t.Logf("intake allocations per family: %.1f with 1 file, %.1f with 64", one, many)
	if many > one+1 || many > 16 {
		t.Fatalf("intake allocations per family: %.1f with 1 file, %.1f with 64; want the same small constant", one, many)
	}
}

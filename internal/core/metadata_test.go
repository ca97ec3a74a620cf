package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"xtract/internal/cache"
	"xtract/internal/clock"
	"xtract/internal/crawler"
	"xtract/internal/dataset"
	"xtract/internal/extractors"
	"xtract/internal/faas"
	"xtract/internal/family"
	"xtract/internal/fastjson"
	"xtract/internal/journal"
	"xtract/internal/registry"
	"xtract/internal/scheduler"
	"xtract/internal/store"
	"xtract/internal/transfer"
	"xtract/internal/validate"
)

// journalRecords reads every record of the journal segments under jpath,
// frame by frame, so tests can look at the bytes that reached the disk.
func journalRecords(t testing.TB, jpath string) []journal.Record {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(jpath, "seg-*.wal"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no journal segments under %s: %v", jpath, err)
	}
	sort.Strings(names)
	var out []journal.Record
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for off := 0; off+8 <= len(data); {
			n := int(binary.LittleEndian.Uint32(data[off:]))
			var rec journal.Record
			if err := json.Unmarshal(data[off+8:off+8+n], &rec); err != nil {
				t.Fatalf("%s at %d: %v", name, off, err)
			}
			out = append(out, rec)
			off += 8 + n
		}
	}
	return out
}

// stepMetadata indexes a job's journaled step completions by step.
func stepMetadata(recs []journal.Record, jobID string) map[string]string {
	out := make(map[string]string)
	for _, r := range recs {
		if r.Type == journal.RecStepCompleted && r.JobID == jobID {
			out[journal.StepKey(r.FamilyID, r.GroupID, r.Extractor)] = string(r.Metadata)
		}
	}
	return out
}

// takeDocs waits for want documents at the destination, returns them and
// empties the destination for the next job.
func takeDocs(t *testing.T, h *harness, want int64) map[string][]byte {
	t.Helper()
	docs := waitForDocs(t, h.valsvc, h.dest, int(want))
	for p := range docs {
		if err := h.dest.Delete(p); err != nil {
			t.Fatal(err)
		}
	}
	return docs
}

// TestColdAndWarmJobsWriteIdenticalBytes is the contract the encode-once
// path is held to: jobs over one repository -- extracted, extracted
// again, replayed from the cache -- write byte-identical destination
// documents and journal byte-identical step metadata. It covers the
// determinism fix too: a document's files array no longer follows map
// iteration order.
func TestColdAndWarmJobsWriteIdenticalBytes(t *testing.T) {
	jpath := t.TempDir()
	jdir, err := journal.OSDir(jpath)
	if err != nil {
		t.Fatal(err)
	}
	jnl, err := journal.Open(jdir, journal.Options{CompactSegments: -1})
	if err != nil {
		t.Fatal(err)
	}
	h := newHarnessCfg(t, []siteSpec{{name: "theta", workers: 4}}, scheduler.LocalPolicy{},
		func(cfg *Config) {
			cfg.Cache = cache.New(0)
			cfg.Journal = jnl
		})
	defer h.close()
	seedScience(t, h.sites["theta"], "/repo/hand")
	if _, err := dataset.MaterializeMDF(h.sites["theta"], "/repo/gen", 40, 11); err != nil {
		t.Fatal(err)
	}
	run := func(opts JobOptions) (JobStats, map[string][]byte) {
		t.Helper()
		stats, err := runJobOpts(h.svc, context.Background(), []RepoSpec{{
			SiteName: "theta", Roots: []string{"/repo"},
			Grouper: crawler.MatIOGrouper(extractors.DefaultLibrary()),
			// One crawl worker: min-transfers packaging draws from a
			// per-worker generator, so family IDs repeat run to run.
			CrawlWorkers: 1,
		}}, opts)
		if err != nil || stats.FamiliesFailed != 0 || stats.StepsDeadLettered != 0 {
			t.Fatalf("job not clean: %+v, %v", stats, err)
		}
		return stats, takeDocs(t, h, stats.FamiliesDone)
	}

	cold, coldDocs := run(JobOptions{})
	again, againDocs := run(JobOptions{NoCache: true})
	tasksBeforeWarm := h.fsvc.TasksSubmitted.Load()
	warm, warmDocs := run(JobOptions{})
	if warm.CacheHits != warm.StepsProcessed || warm.StepsProcessed != cold.StepsProcessed ||
		h.fsvc.TasksSubmitted.Load() != tasksBeforeWarm {
		t.Fatalf("warm job not served from the cache: %+v", warm)
	}
	if len(coldDocs) < 20 {
		t.Fatalf("only %d documents; the corpus is too small to mean anything", len(coldDocs))
	}
	for name, docs := range map[string]map[string][]byte{"second cold": againDocs, "warm": warmDocs} {
		if len(docs) != len(coldDocs) {
			t.Fatalf("%s job wrote %d documents, cold wrote %d", name, len(docs), len(coldDocs))
		}
		for p, want := range coldDocs {
			if !bytes.Equal(docs[p], want) {
				t.Fatalf("%s job's %s differs:\n got: %s\nwant: %s", name, p, docs[p], want)
			}
		}
	}
	// Every document's files are sorted, and its metadata is what a
	// generic decode and re-encode of the document would write: canonical.
	docBlocks := make(map[string]string) // family, group/extractor → bytes
	for p, doc := range coldDocs {
		var parsed struct {
			Family   string                  `json:"family"`
			Files    []string                `json:"files"`
			Metadata map[string]fastjson.Raw `json:"metadata"`
		}
		if err := json.Unmarshal(doc, &parsed); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if !sort.StringsAreSorted(parsed.Files) {
			t.Fatalf("%s: files not sorted: %v", p, parsed.Files)
		}
		for k, md := range parsed.Metadata {
			g, err := fastjson.DecodeValue(md)
			if err != nil {
				t.Fatalf("%s %s: %v", p, k, err)
			}
			if re, _ := fastjson.AppendValue(nil, g); !bytes.Equal(re, md) {
				t.Fatalf("%s %s is not canonical:\n doc: %s\nre-encoded: %s", p, k, md, re)
			}
			docBlocks[parsed.Family+"\x1f"+k] = string(md)
		}
	}

	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	recs := journalRecords(t, jpath)
	coldMD := stepMetadata(recs, cold.JobID)
	if int64(len(coldMD)) != cold.StepsProcessed {
		t.Fatalf("journal holds %d step completions for the cold job, want %d", len(coldMD), cold.StepsProcessed)
	}
	// The journal and the document hold the same bytes for a step.
	for _, r := range recs {
		if r.Type != journal.RecStepCompleted || r.JobID != cold.JobID {
			continue
		}
		if want := docBlocks[r.FamilyID+"\x1f"+r.GroupID+"/"+r.Extractor]; string(r.Metadata) != want {
			t.Fatalf("step %s %s/%s: journal %s, document %s", r.FamilyID, r.GroupID, r.Extractor, r.Metadata, want)
		}
	}
	for name, id := range map[string]string{"second cold": again.JobID, "warm": warm.JobID} {
		got := stepMetadata(recs, id)
		if len(got) != len(coldMD) {
			t.Fatalf("%s job journaled %d step completions, cold %d", name, len(got), len(coldMD))
		}
		for k, want := range coldMD {
			if got[k] != want {
				t.Fatalf("%s job journaled different metadata for %q:\n got: %s\nwant: %s", name, k, got[k], want)
			}
		}
	}
}

// TestConcurrentWarmJobsShareMetadataBytes: a cache entry's bytes are
// handed, uncopied, to every pump that hits it, and on to the journal's
// flush leader and its live state. All of them only read; the race
// detector holds them to it while four jobs replay one repository.
func TestConcurrentWarmJobsShareMetadataBytes(t *testing.T) {
	jdir, err := journal.OSDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	jnl, err := journal.Open(jdir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	h := newHarnessCfg(t, []siteSpec{{name: "theta", workers: 4}}, scheduler.LocalPolicy{},
		func(cfg *Config) {
			cfg.Cache = cache.New(0)
			cfg.Journal = jnl
		})
	defer h.close()
	if _, err := dataset.MaterializeMDF(h.sites["theta"], "/repo", 30, 2); err != nil {
		t.Fatal(err)
	}
	repo := []RepoSpec{{SiteName: "theta", Roots: []string{"/repo"}, CrawlWorkers: 1,
		Grouper: crawler.MatIOGrouper(extractors.DefaultLibrary())}}
	cold, err := h.svc.RunJob(context.Background(), repo)
	if err != nil {
		t.Fatal(err)
	}
	want := takeDocs(t, h, cold.FamiliesDone)

	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			stats, err := h.svc.RunJob(context.Background(), repo)
			if err == nil && stats.CacheHits != stats.StepsProcessed {
				err = fmt.Errorf("warm job missed the cache: %+v", stats)
			}
			errs <- err
		}()
	}
	for i := 0; i < 4; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	// Every job writes each family's document to the same path; whichever
	// write landed last, the bytes are the cold job's.
	deadline := time.Now().Add(30 * time.Second)
	for h.valsvc.Validated.Load() < 5*cold.FamiliesDone {
		if time.Now().After(deadline) {
			t.Fatalf("validated %d of %d documents", h.valsvc.Validated.Load(), 5*cold.FamiliesDone)
		}
		time.Sleep(time.Millisecond)
	}
	if got := snapshotDocs(t, h.dest); !docsEqual(got, want) {
		t.Fatal("concurrent warm jobs wrote different documents than the cold job")
	}
}

// tagged wraps the keyword extractor and lets a test rewrite what it
// returns, per group.
type tagged struct {
	extractors.Extractor
	rewrite func(g *family.Group, md map[string]interface{})
}

func (x tagged) Version() string { return extractors.VersionOf(x.Extractor) }

func (x tagged) Extract(g *family.Group, files map[string][]byte) (map[string]interface{}, error) {
	md, err := x.Extractor.Extract(g, files)
	if err == nil {
		x.rewrite(g, md)
	}
	return md, err
}

// TestUnencodableMetadataFailsTheStepNotTheBatch: a dictionary JSON
// cannot carry is refused where it is encoded, in the worker, and costs
// only its own step -- the sibling sharing the FaaS task still lands.
func TestUnencodableMetadataFailsTheStepNotTheBatch(t *testing.T) {
	kw, _ := extractors.DefaultLibrary().Get("keyword")
	lib := extractors.NewLibrary(tagged{kw, func(g *family.Group, md map[string]interface{}) {
		if strings.Contains(g.Files[0], "poison") {
			md["score"] = math.NaN()
		}
	}})
	h := newHarnessCfg(t, []siteSpec{{name: "alpha", workers: 1}}, scheduler.LocalPolicy{},
		func(cfg *Config) {
			cfg.Library = lib
			cfg.Retry = RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond, MaxBackoff: time.Millisecond}
		})
	defer h.close()
	for _, name := range []string{"/d/poison.txt", "/d/fine.txt"} {
		if err := h.sites["alpha"].Write(name, []byte("perovskite absorber layers studied extensively")); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := h.svc.RunJob(context.Background(), []RepoSpec{{
		SiteName: "alpha", Roots: []string{"/d"}, Grouper: crawler.SingleFileGrouper(lib),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FamiliesDone != 1 || stats.FamiliesFailed != 1 || stats.StepsDeadLettered != 1 {
		t.Fatalf("stats = %+v; want one family done, one failed on its dead-lettered step", stats)
	}
	rec, err := h.svc.cfg.Registry.Job(stats.JobID)
	if err != nil || len(rec.DeadLetters) != 1 || !strings.Contains(rec.DeadLetters[0].Reason, "encode metadata") {
		t.Fatalf("dead letters = %+v, %v; want one naming the encode failure", rec.DeadLetters, err)
	}
}

// TestCachedSuggestionStillExtendsThePlan: a replayed step's metadata is
// never decoded, but the extractors it suggests must still run -- the
// pump looks for the reserved key in the bytes.
func TestCachedSuggestionStillExtendsThePlan(t *testing.T) {
	h := newHarnessCfg(t, []siteSpec{{name: "midway", workers: 2}}, scheduler.LocalPolicy{},
		func(cfg *Config) { cfg.Cache = cache.New(0) })
	defer h.close()
	if err := h.sites["midway"].Write("/d/table.txt", []byte("a,b,c\n1,2,3\n4,5,6\n7,8,9\n")); err != nil {
		t.Fatal(err)
	}
	repo := []RepoSpec{{
		SiteName: "midway", Roots: []string{"/d"},
		Grouper: crawler.SingleFileGrouper(extractors.DefaultLibrary()),
	}}
	cold, err := h.svc.RunJob(context.Background(), repo)
	if err != nil || cold.StepsProcessed < 2 {
		t.Fatalf("cold job = %+v, %v; want keyword plus the tabular step it suggests", cold, err)
	}
	coldDocs := takeDocs(t, h, 1)
	tasks := h.fsvc.TasksSubmitted.Load()
	warm, err := h.svc.RunJob(context.Background(), repo)
	if err != nil || warm.StepsProcessed != cold.StepsProcessed || warm.CacheHits != warm.StepsProcessed {
		t.Fatalf("warm job = %+v, %v; want %d steps, all from the cache", warm, err, cold.StepsProcessed)
	}
	if h.fsvc.TasksSubmitted.Load() != tasks {
		t.Fatal("warm job submitted FaaS tasks")
	}
	warmDocs := takeDocs(t, h, 1)
	for p, doc := range warmDocs {
		if !bytes.Contains(doc, []byte(`/tabular":{`)) || !bytes.Equal(doc, coldDocs[p]) {
			t.Fatalf("warm document lost the suggested step:\nwarm: %s\ncold: %s", doc, coldDocs[p])
		}
	}
}

// TestRecoverySeedsTheCacheWithJournalBytes: recovery hands the journal's
// metadata bytes to the cache as they are, and the resumed job's
// documents carry them. The second life's journal is written by hand
// from the first's, each block given a leading member no encoder of ours
// would write there (out of key order, a trailing zero), so a decode
// anywhere on the way would show.
func TestRecoverySeedsTheCacheWithJournalBytes(t *testing.T) {
	dataFS := seedCrashCorpus(t)
	dest1 := store.NewMemFS("user-dest", nil)
	jpath1 := t.TempDir()
	inv1 := newInvLog()
	life1 := startCrashLife(t, jpath1, dataFS, dest1, inv1, 0)
	stats, err := life1.svc.RunJob(life1.ctx, crashRepos(inv1, 0))
	if err != nil || stats.FamiliesFailed != 0 {
		t.Fatalf("first life: %+v, %v", stats, err)
	}
	docs1 := waitForDocs(t, life1.valsvc, dest1, int(stats.FamiliesDone))
	life1.cancel()
	if err := life1.jnl.Close(); err != nil {
		t.Fatal(err)
	}

	jpath2 := t.TempDir()
	jdir2, err := journal.OSDir(jpath2)
	if err != nil {
		t.Fatal(err)
	}
	jnl2, err := journal.Open(jdir2, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const mark = `"~first":1.50,`
	marked := 0
	for _, rec := range journalRecords(t, jpath1) {
		switch rec.Type {
		case journal.RecJobSubmitted:
		case journal.RecStepCompleted:
			if len(rec.Metadata) > 2 && fastjson.IsObject(rec.Metadata) {
				rec.Metadata = append(fastjson.Raw("{"+mark), rec.Metadata[1:]...)
				marked++
			}
		default:
			continue // the hand-written journal stops before the job ended
		}
		rec.Seq = 0
		if err := jnl2.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := jnl2.Close(); err != nil {
		t.Fatal(err)
	}
	if marked == 0 {
		t.Fatal("first life journaled no step metadata")
	}

	dest2 := store.NewMemFS("user-dest", nil)
	inv2 := newInvLog()
	life2 := startCrashLife(t, jpath2, dataFS, dest2, inv2, 0)
	defer func() {
		life2.cancel()
		_ = life2.jnl.Close()
	}()
	status, err := life2.svc.Recover(life2.ctx)
	if err != nil || status.Resumed != 1 {
		t.Fatalf("recovery = %+v, %v; want one job resumed", status, err)
	}
	life2.svc.RecoveryWait()
	docs2 := waitForDocs(t, life2.valsvc, dest2, len(docs1))
	if inv2.total() != 0 {
		t.Fatalf("resumed job invoked %d extractors; every step was journaled", inv2.total())
	}
	found := 0
	for p, doc := range docs2 {
		found += bytes.Count(doc, []byte(":{"+mark))
		if undone := bytes.ReplaceAll(doc, []byte(mark), nil); !bytes.Equal(undone, docs1[p]) {
			t.Fatalf("%s differs beyond the mark:\nresumed: %s\n  first: %s", p, doc, docs1[p])
		}
	}
	if found != marked {
		t.Fatalf("documents carry %d of the %d marked journal blocks verbatim", found, marked)
	}
}

// bareService is a service with one compute site and nothing running
// beside it: no validator, no prefetcher, no endpoint workers. What a
// test measures on it, the pump did.
func bareService(t testing.TB, c *cache.Cache) *Service {
	t.Helper()
	clk := clock.NewReal()
	_, prefetch, prefetchDone, results := NewQueues(clk)
	svc := New(Config{
		Clock: clk, FaaS: faas.NewService(clk, faas.Costs{}), Fabric: transfer.NewFabric(clk),
		Registry: registry.New(clk, 0), Library: extractors.DefaultLibrary(),
		PrefetchQueue: prefetch,
		PrefetchDone:  prefetchDone, ResultQueue: results, Cache: c,
	})
	svc.AddSite(&Site{Name: "x", Store: store.NewMemFS("x", nil), TransferID: "x",
		Compute: faas.NewEndpoint("ep-x", 1, clk)})
	return svc
}

// TestWarmStepCostDoesNotGrowWithMetadata is the white-box half of the
// encode-once contract. A cached step travels cache → family state →
// journal record → validation record without its metadata being looked
// into, so the pump's allocations for it are the same whether the
// dictionary has one key or two thousand; a decode anywhere on that path
// allocates per key and fails this at once. (cache and validate hold
// their own ends to the same rule in their packages.)
func TestWarmStepCostDoesNotGrowWithMetadata(t *testing.T) {
	c := cache.New(0)
	svc := bareService(t, c)
	p := newPump(svc, svc.cfg.Registry.CreateJob("", []string{"x"}, svc.clk.Now()), "", false, nil)
	fam := family.Family{
		ID: "x:/d#0", Store: "x", BasePath: "/d", Files: []string{"/d/a.txt"},
		Groups:   []family.Group{{ID: "g", Files: []string{"/d/a.txt"}, Extractor: "keyword"}},
		FileMeta: map[string]family.FileMeta{"/d/a.txt": {Size: 1, ContentHash: "h"}},
	}
	key, ok := p.stepCacheKey(&famState{fam: fam}, scheduler.Step{GroupID: "g", Extractor: "keyword"})
	if !ok {
		t.Fatal("step not cacheable")
	}
	big := []byte(`{"k0":[0,"v",{"n":null}]`)
	for i := 1; i < 2000; i++ {
		big = append(big, fmt.Sprintf(`,"k%d":[%d,"v",{"n":null}]`, i, i)...)
	}
	big = append(big, '}')
	measure := func(md fastjson.Raw) float64 {
		c.PutRaw(key, md)
		p.placeFamily(fam) // warm the pump's buffers
		p.flushResults()
		return testing.AllocsPerRun(20, func() {
			p.placeFamily(fam)
			p.flushResults()
		})
	}
	small, large := measure(fastjson.Raw(`{"k":1}`)), measure(big)
	if p.CacheHits == 0 || p.CacheHits != p.FamiliesDone || p.CacheMisses != 0 {
		t.Fatalf("hits %d, misses %d, families %d; want every family served by one hit",
			p.CacheHits, p.CacheMisses, p.FamiliesDone)
	}
	if large > small {
		t.Fatalf("a cached step with %d bytes of metadata cost %.0f allocations, one with 7 bytes %.0f",
			len(big), large, small)
	}
}

// BenchmarkWarmStep runs all-hit jobs over an MDF-shaped repository and
// reports what one cached step costs end to end: crawl, fingerprint,
// cache read, journal record, validation record, document.
func BenchmarkWarmStep(b *testing.B) {
	clk := clock.NewReal()
	fsvc := faas.NewService(clk, faas.Costs{})
	_, prefetch, prefetchDone, results := NewQueues(clk)
	svc := New(Config{
		Clock: clk, FaaS: fsvc, Fabric: transfer.NewFabric(clk),
		Registry: registry.New(clk, 0), Library: extractors.DefaultLibrary(),
		PrefetchQueue: prefetch,
		PrefetchDone:  prefetchDone, ResultQueue: results, Cache: cache.New(0),
	})
	fs := store.NewMemFS("theta", nil)
	if _, err := dataset.MaterializeMDF(fs, "/repo", 200, 5); err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ep := faas.NewEndpoint("ep-theta", 4, clk)
	fsvc.RegisterEndpoint(ep)
	if err := ep.Start(ctx); err != nil {
		b.Fatal(err)
	}
	svc.AddSite(&Site{Name: "theta", Store: fs, TransferID: "theta", Compute: ep})
	if err := svc.RegisterExtractors(); err != nil {
		b.Fatal(err)
	}
	valsvc := validate.NewService(validate.NewMDF("bench"), results, store.NewMemFS("dest", nil))
	repo := []RepoSpec{{SiteName: "theta", Roots: []string{"/repo"},
		Grouper: crawler.MatIOGrouper(extractors.DefaultLibrary())}}
	if _, err := svc.RunJob(ctx, repo); err != nil { // the cold, priming job
		b.Fatal(err)
	}
	valsvc.Drain()

	var before, after runtime.MemStats
	var steps int64
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, err := svc.RunJob(ctx, repo)
		if err != nil || stats.CacheHits != stats.StepsProcessed {
			b.Fatalf("warm job = %+v, %v", stats, err)
		}
		valsvc.Drain()
		steps += stats.StepsProcessed
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(steps), "allocs/step")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps), "ns/step")
}

package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"xtract/internal/cache"
	"xtract/internal/crawler"
	"xtract/internal/extractors"
	"xtract/internal/family"
	"xtract/internal/registry"
	"xtract/internal/scheduler"
)

// gatePolicy parks the pump goroutine itself inside placeFamily for the
// family crawled from hold, so the pump is provably mid-cycle — neither
// idle nor finished — while the test looks at the destination.
type gatePolicy struct {
	scheduler.LocalPolicy
	hold    string
	entered chan struct{}
	release chan struct{}
}

func (g *gatePolicy) Place(fam *family.Family, home scheduler.SiteState, alts []scheduler.SiteState) string {
	if fam.BasePath == g.hold {
		close(g.entered)
		<-g.release
	}
	return g.LocalPolicy.Place(fam, home, alts)
}

// TestResultsLeaveThePumpEveryPass runs a warm job whose first 64
// families (one directory, one hand-off batch, all a pass takes) finish
// from the cache inside the pass that placed them; the next pass holds the
// pump on the last family. The 64 documents must reach the destination while the pump
// is held and the job is still EXTRACTING. (The issue's shape — the last
// family's extractor blocked on a worker — lets the pump go idle, and an
// idle pump flushed at the parent too; holding the pump itself is what
// separates "every pass" from "every cycle".)
func TestResultsLeaveThePumpEveryPass(t *testing.T) {
	policy := &gatePolicy{entered: make(chan struct{}), release: make(chan struct{})}
	h := newHarnessCfg(t, []siteSpec{{name: "theta", workers: 4}}, policy,
		func(cfg *Config) { cfg.Cache = cache.New(0) })
	defer h.close()
	fs := h.sites["theta"]
	for i := 0; i < 64; i++ {
		if err := fs.Write(fmt.Sprintf("/d/a/f%02d.txt", i), []byte(fmt.Sprintf("sample %d of perovskite absorber notes", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := fs.Write("/d/b/last.txt", []byte("the family the pump is held on")); err != nil {
		t.Fatal(err)
	}
	// One crawl worker lists /d/a before /d/b, so the hand-off holds a's 64
	// families ahead of b's one, and 64 families fill a pass: whether a's
	// batch is taken by the intake or inside await, b's comes a pass later.
	repos := []RepoSpec{{
		SiteName: "theta", Roots: []string{"/d"}, CrawlWorkers: 1,
		Grouper: crawler.SingleFileGrouper(extractors.DefaultLibrary()),
	}}
	waitDocs := func(n int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			infos, _ := h.dest.List("/metadata")
			if len(infos) == n {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("destination holds %d documents, want %d", len(infos), n)
			}
			time.Sleep(time.Millisecond)
		}
	}

	if _, err := h.svc.RunJob(context.Background(), repos); err != nil {
		t.Fatal(err)
	}
	waitDocs(65)
	infos, _ := h.dest.List("/metadata")
	for _, fi := range infos {
		if err := h.dest.Delete(fi.Path); err != nil {
			t.Fatal(err)
		}
	}

	policy.hold = "/d/b"
	job, err := h.svc.Submit(context.Background(), repos, JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-policy.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the pump never reached the held family")
	}
	waitDocs(64)
	if rec, err := h.svc.cfg.Registry.Job(job.ID); err != nil || rec.State != registry.JobExtracting {
		t.Fatalf("job record = %+v, %v; want state EXTRACTING", rec, err)
	}
	close(policy.release)
	stats, err := job.Wait()
	if err != nil || stats.FamiliesDone != 65 || stats.CacheHits != stats.StepsProcessed {
		t.Fatalf("warm job = %+v, %v; want 65 families, all steps from the cache", stats, err)
	}
	waitDocs(65)
}

// barePump is a pump over its own hand-off with no job loop around it,
// for driving intakeFamilies directly.
func barePump(h *harness, name string) *pump {
	return newPump(h.svc, h.svc.cfg.Registry.CreateJob("", []string{name}, h.clk.Now()), "", false, nil)
}

package core

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"xtract/internal/cache"
	"xtract/internal/crawler"
	"xtract/internal/extractors"
	"xtract/internal/family"
	"xtract/internal/obs"
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
// families (one directory, one queue batch) finish from the cache inside
// the intake pass that placed them; the next pass holds the pump on the
// last family. The 64 documents must reach the destination while the pump
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
	// One crawl worker lists /d/a before /d/b, so the queue holds a's 64
	// families ahead of b's one and Receive(64) never mixes them.
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
	idCh := make(chan string, 1)
	type result struct {
		stats JobStats
		err   error
	}
	done := make(chan result, 1)
	go func() {
		stats, err := h.svc.RunJobNotifyOpts(context.Background(), repos, JobOptions{}, idCh)
		done <- result{stats, err}
	}()
	select {
	case <-policy.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the pump never reached the held family")
	}
	waitDocs(64)
	if rec, err := h.svc.cfg.Registry.Job(<-idCh); err != nil || rec.State != registry.JobExtracting {
		t.Fatalf("job record = %+v, %v; want state EXTRACTING", rec, err)
	}
	close(policy.release)
	r := <-done
	if r.err != nil || r.stats.FamiliesDone != 65 || r.stats.CacheHits != r.stats.StepsProcessed {
		t.Fatalf("warm job = %+v, %v; want 65 families, all steps from the cache", r.stats, r.err)
	}
	waitDocs(65)
}

// barePump is a pump over its own family queue with no job loop around
// it, for driving intakeFamilies directly.
func barePump(h *harness, name string) *pump {
	return newPump(h.svc, h.svc.cfg.Registry.CreateJob("", []string{name}, h.clk.Now()), "", false, nil)
}

// A body the pump cannot decode is a family it cannot process: it must
// count as failed (so the job ends FAILED, as any FamiliesFailed > 0 does) and
// leave an audit trail under the queue message ID, not be acknowledged in
// silence.
func TestUndecodableFamilyBodyFailsTheFamily(t *testing.T) {
	h := newHarnessCfg(t, []siteSpec{{name: "alpha", workers: 1}}, scheduler.LocalPolicy{},
		func(cfg *Config) { cfg.Obs = obs.New(cfg.Clock) })
	defer h.close()
	p := barePump(h, "test-corrupt")
	msgID := p.famQ.Send([]byte(`{"id":"fam-1","groups":[{"id":`))

	if !p.intakeFamilies() {
		t.Fatal("intake made no progress")
	}
	if p.FamiliesFailed != 1 {
		t.Fatalf("failedFam = %d, want 1", p.FamiliesFailed)
	}
	if p.famQ.Len() != 0 || p.famQ.InFlight() != 0 {
		t.Fatalf("queue not drained: visible=%d inflight=%d", p.famQ.Len(), p.famQ.InFlight())
	}
	rec, err := h.svc.cfg.Registry.Job(p.JobID)
	if err != nil || len(rec.DeadLetters) != 1 || rec.DeadLetters[0].FamilyID != msgID {
		t.Fatalf("dead letters = %+v, %v; want one keyed %s", rec.DeadLetters, err, msgID)
	}
	events, _ := h.svc.obs.Tracer().Events(p.JobID)
	found := false
	for _, ev := range events {
		if ev.Type == obs.EvFamilyFailed && strings.Contains(ev.Detail, msgID) {
			found = true
		}
	}
	if !found {
		t.Fatalf("no family_failed event names %s: %+v", msgID, events)
	}
}

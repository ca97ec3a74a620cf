package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"xtract/internal/crawler"
	"xtract/internal/dataset"
	xt "xtract/internal/extractors"
	"xtract/internal/family"
	"xtract/internal/faultinject"
	"xtract/internal/scheduler"
	"xtract/internal/store"
)

// assertNoRecords checks the fabrics kept nothing of a finished job: no
// FaaS task record (payload + result) and no transfer job record (pair
// list). Prefetcher waiters outlive a cancelled job, so transfer records
// are given a moment to drain.
func assertNoRecords(t *testing.T, h *harness) {
	t.Helper()
	if n := h.fsvc.TaskRecords(); n != 0 {
		t.Fatalf("faas service still holds %d task records", n)
	}
	deadline := time.Now().Add(10 * time.Second)
	for h.fabric.JobRecords() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("transfer fabric still holds %d job records", h.fabric.JobRecords())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRecordsDroppedAfterCompletedJob(t *testing.T) {
	h := newHarness(t, []siteSpec{
		{name: "petrel", workers: 0},
		{name: "river", workers: 4},
	}, scheduler.LocalPolicy{})
	defer h.close()
	seedScience(t, h.sites["petrel"], "/data")

	stats, err := h.svc.RunJob(context.Background(), []RepoSpec{{
		SiteName: "petrel",
		Roots:    []string{"/data"},
		Grouper:  crawler.SingleFileGrouper(xt.DefaultLibrary()),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FamiliesDone == 0 || stats.BytesStaged == 0 {
		t.Fatalf("job neither staged nor extracted: %+v", stats)
	}
	assertNoRecords(t, h)
}

// parkingExtractor blocks every execution until released, and reports the
// first one to enter.
type parkingExtractor struct {
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func (p *parkingExtractor) Name() string                { return "parking" }
func (p *parkingExtractor) Container() string           { return "parking-container" }
func (p *parkingExtractor) Applies(store.FileInfo) bool { return true }

func (p *parkingExtractor) Extract(*family.Group, map[string][]byte) (map[string]interface{}, error) {
	p.once.Do(func() { close(p.entered) })
	<-p.release
	return nil, nil
}

func TestRecordsDroppedAfterCancelledJob(t *testing.T) {
	ext := &parkingExtractor{entered: make(chan struct{}), release: make(chan struct{})}
	defer close(ext.release)
	h := newHarnessCfg(t, []siteSpec{
		{name: "petrel", workers: 0},
		{name: "river", workers: 2},
	}, scheduler.LocalPolicy{}, func(cfg *Config) { cfg.Library = xt.NewLibrary(ext) })
	defer h.close()
	seedScience(t, h.sites["petrel"], "/data")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := h.svc.RunJob(ctx, []RepoSpec{{
			SiteName: "petrel",
			Roots:    []string{"/data"},
			Grouper:  crawler.SingleFileGrouper(xt.NewLibrary(ext)),
		}})
		done <- err
	}()
	select {
	case <-ext.entered: // staged, dispatched, and now parked on a worker
	case <-time.After(10 * time.Second):
		t.Fatal("no task ever started")
	}
	if h.fsvc.TaskRecords() == 0 {
		t.Fatal("a running task has no record")
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("RunJob = %v, want context.Canceled", err)
	}
	assertNoRecords(t, h)
}

// TestDeleteStagedRemovesCopiesOncePerFamily stages families whose
// matio/ase groups overlap (they share structure files) with DeleteStaged
// on. Deleting a step's files when that step ended starved the sibling
// steps; the copies must go once, when the family's plan is done, and the
// site's staging reservation with them.
func TestDeleteStagedRemovesCopiesOncePerFamily(t *testing.T) {
	h := newHarness(t, []siteSpec{
		{name: "petrel", workers: 0},
		{name: "theta", workers: 4},
	}, scheduler.LocalPolicy{})
	defer h.close()
	if _, err := dataset.MaterializeMDF(h.sites["petrel"], "/data", 60, 7); err != nil {
		t.Fatal(err)
	}
	theta, _ := h.svc.Site("theta")
	theta.DeleteStaged = true
	theta.StageCapacityBytes = 1 << 30

	stats, err := h.svc.RunJob(context.Background(), []RepoSpec{{
		SiteName: "petrel",
		Roots:    []string{"/data"},
		Grouper:  crawler.MatIOGrouper(xt.DefaultLibrary()),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.StepsProcessed <= stats.FamiliesDone {
		t.Fatalf("corpus has no multi-step families: %+v", stats)
	}
	if stats.FamiliesDone != stats.Crawl.FamiliesEmitted || stats.FamiliesFailed != 0 ||
		stats.StepsDeadLettered != 0 || stats.StepsFailed != 0 {
		t.Fatalf("families done %d of %d crawled, failed %d, steps failed %d, dead-lettered %d",
			stats.FamiliesDone, stats.Crawl.FamiliesEmitted, stats.FamiliesFailed,
			stats.StepsFailed, stats.StepsDeadLettered)
	}
	if stats.BytesStaged == 0 {
		t.Fatal("nothing was staged")
	}
	if n := countFiles(t, h.sites["theta"], theta.StagePath); n != 0 {
		t.Fatalf("%d staged copies left under %s", n, theta.StagePath)
	}
	if theta.stagedBytes != 0 {
		t.Fatalf("staging reservation = %d bytes after the job, want 0", theta.stagedBytes)
	}
}

// TestStagingRetriedAfterFailedFabricJob: a fabric job that fails fails
// every family of its window; the pump re-sends each one's staging task
// after a backoff and the job still completes.
func TestStagingRetriedAfterFailedFabricJob(t *testing.T) {
	h := newHarness(t, []siteSpec{
		{name: "petrel", workers: 0},
		{name: "river", workers: 4},
	}, scheduler.LocalPolicy{})
	defer h.close()
	seedScience(t, h.sites["petrel"], "/data")
	h.fabric.SetFaults(faultinject.New(faultinject.Config{
		Seed:          1,
		TransferError: faultinject.Rule{Prob: 1, Max: 1},
	}))

	stats, err := h.svc.RunJob(context.Background(), []RepoSpec{{
		SiteName: "petrel",
		Roots:    []string{"/data"},
		Grouper:  crawler.SingleFileGrouper(xt.DefaultLibrary()),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.StepsRetried == 0 || h.pf.TasksFailed.Load() == 0 {
		t.Fatalf("no staging failure was retried: retried %d, prefetcher failed %d",
			stats.StepsRetried, h.pf.TasksFailed.Load())
	}
	if stats.FamiliesDone != stats.Crawl.FamiliesEmitted || stats.FamiliesFailed != 0 {
		t.Fatalf("families done %d of %d, failed %d", stats.FamiliesDone,
			stats.Crawl.FamiliesEmitted, stats.FamiliesFailed)
	}
}

// countFiles counts regular files under dir, recursively.
func countFiles(t *testing.T, fs *store.MemFS, dir string) int {
	t.Helper()
	infos, err := fs.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, fi := range infos {
		if fi.IsDir {
			n += countFiles(t, fs, fi.Path)
		} else {
			n++
		}
	}
	return n
}

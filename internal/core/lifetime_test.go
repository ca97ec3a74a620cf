package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"xtract/internal/clock"
	"xtract/internal/cluster"
	"xtract/internal/dataset"
	xt "xtract/internal/extractors"
	"xtract/internal/family"
	"xtract/internal/faultinject"
	"xtract/internal/journal"
	"xtract/internal/obs"
	"xtract/internal/registry"
	"xtract/internal/scheduler"
	"xtract/internal/store"
	"xtract/internal/tenant"
	"xtract/internal/transfer"
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
	seedScience(t, h.sites["petrel"], "/data")

	stats, err := h.svc.RunJob(context.Background(), []journal.RepoSpec{{
		Site:    "petrel",
		Roots:   []string{"/data"},
		Grouper: "single",
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
	seedScience(t, h.sites["petrel"], "/data")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := h.svc.RunJob(ctx, []journal.RepoSpec{{
			Site:    "petrel",
			Roots:   []string{"/data"},
			Grouper: "single",
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
	if _, err := dataset.MaterializeMDF(h.sites["petrel"], "/data", 60, 7); err != nil {
		t.Fatal(err)
	}
	theta, _ := h.svc.Site("theta")
	theta.DeleteStaged = true
	theta.StageCapacityBytes = 1 << 30

	stats, err := h.svc.RunJob(context.Background(), []journal.RepoSpec{{
		Site:    "petrel",
		Roots:   []string{"/data"},
		Grouper: "matio",
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
	seedScience(t, h.sites["petrel"], "/data")
	h.fabric.SetFaults(faultinject.New(faultinject.Config{
		Seed:          1,
		TransferError: faultinject.Rule{Prob: 1, Max: 1},
	}))

	stats, err := h.svc.RunJob(context.Background(), []journal.RepoSpec{{
		Site:    "petrel",
		Roots:   []string{"/data"},
		Grouper: "single",
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

// journaledJob opens a journal on an in-memory disk that already knows
// submitted, unfinished jobs over theta:/mdf, one per ID.
func journaledJob(t *testing.T, jobIDs ...string) *journal.Journal {
	t.Helper()
	dir := journal.StoreDir(store.NewMemFS("journal-disk", nil), "/wal")
	prev, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range jobIDs {
		if err := prev.Append(journal.Record{Type: journal.RecJobSubmitted, JobID: id, Spec: &journal.JobSpec{
			Repos: []journal.RepoSpec{{Site: "theta", Roots: []string{"/mdf"}, Grouper: "single"}},
		}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := prev.Close(); err != nil {
		t.Fatal(err)
	}
	jnl, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = jnl.Close() })
	return jnl
}

// TestLiveJobTableEmptiesOnEveryExit: whichever way a job starts and
// whichever way it ends, it is in the live-job table while it runs and
// out of it — with every goroutine it started gone — once it has ended.
func TestLiveJobTableEmptiesOnEveryExit(t *testing.T) {
	repo := journal.RepoSpec{Site: "theta", Roots: []string{"/mdf"}, Grouper: "single"}
	// setup returns a one-site service over the science corpus and the
	// goroutine count to come back to.
	setup := func(t *testing.T, policy scheduler.Policy, mut func(*Config)) (*harness, int) {
		h := newHarnessCfg(t, []siteSpec{{name: "theta", workers: 2}}, policy, func(cfg *Config) {
			cfg.Obs = obs.New(cfg.Clock) // xtract_pipeline_depth
			if mut != nil {
				mut(cfg)
			}
		})
		seedScience(t, h.sites["theta"], "/mdf")
		return h, runtime.NumGoroutine()
	}
	ended := func(t *testing.T, h *harness, goroutines int) {
		t.Helper()
		if n := liveJobs(h.svc); n != 0 {
			t.Fatalf("%d jobs in the live table after the job ended", n)
		}
		if d := h.svc.obsPipelineDepth.Value(); d != 0 {
			t.Fatalf("xtract_pipeline_depth %.0f after the job ended, 0 before it", d)
		}
		eventually(t, "the job's goroutines exiting", func() bool { return runtime.NumGoroutine() <= goroutines })
	}
	// parked submits a job whose pump stands inside its first placement, so
	// that it is certainly live when it is ended from outside.
	parked := func(t *testing.T, h *harness, policy *parkPolicy, ctx context.Context) *Job {
		t.Helper()
		job, err := h.svc.Submit(ctx, journal.JobSpec{Repos: []journal.RepoSpec{repo}})
		if err != nil {
			t.Fatal(err)
		}
		<-policy.entered
		if h.svc.Job(job.ID) != job {
			t.Fatal("a running job is not in the live table under its ID")
		}
		return job
	}
	cancelled := func(t *testing.T, job *Job) {
		t.Helper()
		if _, err := job.Wait(); !errors.Is(err, context.Canceled) {
			t.Fatalf("job ended with %v, want context.Canceled", err)
		}
	}

	t.Run("complete", func(t *testing.T) {
		h, goroutines := setup(t, scheduler.LocalPolicy{}, nil)
		if stats, err := h.svc.RunJob(context.Background(), []journal.RepoSpec{repo}); err != nil || stats.FamiliesDone == 0 {
			t.Fatalf("job = %+v, %v", stats, err)
		}
		ended(t, h, goroutines)
	})
	t.Run("failed crawl", func(t *testing.T) {
		h, goroutines := setup(t, scheduler.LocalPolicy{}, nil)
		spec := journal.JobSpec{Repos: []journal.RepoSpec{repo, repo}}
		crawls, _ := h.svc.resolve(spec)
		crawls[1].Grouper = nil
		job := h.svc.runJob(context.Background(), newRecord(h.svc.jobs.mint(), spec, h.clk.Now()), spec, crawls, nil)
		if _, err := job.Wait(); err == nil {
			t.Fatal("a crawl without a grouping function did not fail the job")
		}
		ended(t, h, goroutines)
	})
	t.Run("cancelled via Cancel", func(t *testing.T) {
		policy := newParkPolicy()
		h, goroutines := setup(t, policy, nil)
		job := parked(t, h, policy, context.Background())
		if !h.svc.Cancel(job.ID) || h.svc.Cancel("no-such-job") {
			t.Fatal("Cancel did not tell the live job from an unknown one")
		}
		close(policy.release)
		cancelled(t, job)
		ended(t, h, goroutines)
		if rec, err := record(h.svc, job.ID); err != nil || rec.State != registry.JobCancelled {
			t.Fatalf("job record = %+v, %v; want CANCELLED", rec, err)
		}
		if h.svc.Cancel(job.ID) {
			t.Fatal("Cancel found a job that has ended")
		}
	})
	t.Run("cancelled via context", func(t *testing.T) {
		policy := newParkPolicy()
		h, goroutines := setup(t, policy, nil)
		ctx, cancel := context.WithCancel(context.Background())
		job := parked(t, h, policy, ctx)
		cancel()
		close(policy.release)
		cancelled(t, job)
		ended(t, h, goroutines)
	})
	t.Run("resumed by Recover", func(t *testing.T) {
		jnl := journaledJob(t, "job-7")
		h, goroutines := setup(t, scheduler.LocalPolicy{}, func(cfg *Config) { cfg.Journal = jnl })
		status, err := h.svc.Recover(context.Background())
		if err != nil || status.Resumed != 1 {
			t.Fatalf("recovery = %+v, %v; want the one job resumed", status, err)
		}
		h.svc.RecoveryWait()
		ended(t, h, goroutines)
		if rec, err := record(h.svc, "job-7"); err != nil || rec.State != registry.JobComplete {
			t.Fatalf("job record = %+v, %v; want COMPLETE", rec, err)
		}
	})
	t.Run("adopted by FailoverScan", func(t *testing.T) {
		jnl := journaledJob(t, "job-n0-1") // its node is gone and its lease with it
		node := cluster.NewNode(cluster.NewCoordinator(cluster.Options{Journal: jnl}), "n1", "")
		policy := newParkPolicy()
		h, goroutines := setup(t, policy, func(cfg *Config) { cfg.Journal, cfg.Cluster = jnl, node })
		if n := h.svc.FailoverScan(context.Background()); n != 1 {
			t.Fatalf("the scan adopted %d jobs, want 1", n)
		}
		<-policy.entered
		job := h.svc.Job("job-n0-1")
		if job == nil {
			t.Fatal("the adopted job is not in the live table")
		}
		close(policy.release)
		if stats, err := job.Wait(); err != nil || stats.FamiliesDone == 0 {
			t.Fatalf("adopted job = %+v, %v", stats, err)
		}
		ended(t, h, goroutines)
	})
	t.Run("fenced by a lost lease", func(t *testing.T) {
		clk := clock.NewFake(time.Unix(1000, 0)) // the leases' clock only
		coord := cluster.NewCoordinator(cluster.Options{Clock: clk, LeaseTTL: time.Second})
		node := cluster.NewNode(coord, "n1", "")
		policy := newParkPolicy()
		tenants := tenant.NewController(tenant.Config{})
		h, goroutines := setup(t, policy, func(cfg *Config) { cfg.Cluster, cfg.Tenants = node, tenants })
		job := parked(t, h, policy, context.Background())
		clk.Advance(2 * time.Second)
		if err := cluster.NewNode(coord, "n2", "").AdoptLease(job.ID, node.HeldEpoch(job.ID)); err != nil {
			t.Fatal(err)
		}
		// What the node loop's callback does with a renewal round's losses.
		lost := node.RenewAll()
		for _, id := range lost {
			h.svc.Cancel(id)
		}
		if len(lost) != 1 || lost[0] != job.ID {
			t.Fatalf("the renewal lost %v, want %s", lost, job.ID)
		}
		close(policy.release)
		cancelled(t, job)
		ended(t, h, goroutines)
		// The job is its new owner's: nothing terminal is recorded here.
		if rec, err := record(h.svc, job.ID); err != nil || rec.State.Terminal() {
			t.Fatalf("job record = %+v, %v; want no terminal state on the fenced node", rec, err)
		}
		// Nor is its start: the new owner counts it, so the cluster's bill
		// sums to one start for one job.
		if u, _ := tenants.UsageFor(tenant.Default); u.JobsStarted != 0 || u.ActiveJobs != 0 {
			t.Fatalf("fenced node's bill = %+v; want no start and no active job", u)
		}
	})
}

// seedSized writes n files of the given size under root and returns their
// total bytes.
func seedSized(t *testing.T, fs *store.MemFS, root string, n, size int) int64 {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := fs.Write(fmt.Sprintf("%s/f%03d.txt", root, i), bytes.Repeat([]byte("x"), size)); err != nil {
			t.Fatal(err)
		}
	}
	return int64(n * size)
}

// TestStagedResultsReachTheirOwnJob: four jobs stage at once through the
// one prefetcher, two of them over the same repository, so that their
// families carry the same IDs and share its windows. Each result reaches
// the job that asked for it: each job's BytesStaged is its own
// repository's, and nothing is left pending.
func TestStagedResultsReachTheirOwnJob(t *testing.T) {
	h := newHarness(t, []siteSpec{
		{name: "petrel", workers: 0},
		{name: "river", workers: 4},
	}, scheduler.LocalPolicy{})
	// The link's round trip has all four jobs staging before the first
	// result arrives, so their tasks do share windows.
	h.fabric.SetLink("petrel", "river", transfer.Link{RTT: 20 * time.Millisecond})
	const files = 40
	roots := []string{"/shared", "/shared", "/c", "/d"}
	want := map[string]int64{
		"/shared": seedSized(t, h.sites["petrel"], "/shared", files, 100),
		"/c":      seedSized(t, h.sites["petrel"], "/c", files, 300),
		"/d":      seedSized(t, h.sites["petrel"], "/d", files, 700),
	}
	var jobs []*Job
	for _, root := range roots {
		job, err := h.svc.Submit(context.Background(), journal.JobSpec{Repos: []journal.RepoSpec{{
			Site: "petrel", Roots: []string{root},
			Grouper: "single",
		}}})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	for i, job := range jobs {
		stats, err := job.Wait()
		if err != nil || stats.FamiliesDone != files || stats.FamiliesFailed != 0 || stats.StepsRetried != 0 {
			t.Fatalf("job over %s = %+v, %v; want %d families, nothing failed or retried", roots[i], stats, err, files)
		}
		if stats.BytesStaged != want[roots[i]] {
			t.Errorf("job over %s staged %d bytes, its repository holds %d", roots[i], stats.BytesStaged, want[roots[i]])
		}
	}
	if n := h.pf.Pending(); n != 0 || h.pf.TasksDone.Load() != int64(len(roots)*files) {
		t.Errorf("prefetcher: %d tasks pending, %d done; want 0 and %d", n, h.pf.TasksDone.Load(), len(roots)*files)
	}
}

// TestCancelledStagingJobLeavesNoResultsBehind: a job cancelled with all
// its families staging is gone when their results arrive. They are
// reported to it all the same and nothing else: once its transfers have
// landed nothing is pending, and the next job over the same repository,
// whose families carry the same IDs, stages every one of them itself.
func TestCancelledStagingJobLeavesNoResultsBehind(t *testing.T) {
	h := newHarness(t, []siteSpec{
		{name: "petrel", workers: 0},
		{name: "river", workers: 4},
	}, scheduler.LocalPolicy{})
	const files = 40
	bytesHeld := seedSized(t, h.sites["petrel"], "/data", files, 100)
	// No result arrives within the link's round trip: time to cancel.
	h.fabric.SetLink("petrel", "river", transfer.Link{RTT: 100 * time.Millisecond})
	repos := []journal.RepoSpec{{Site: "petrel", Roots: []string{"/data"},
		Grouper: "single"}}

	job, err := h.svc.Submit(context.Background(), journal.JobSpec{Repos: repos})
	if err != nil {
		t.Fatal(err)
	}
	eventually(t, "every family handed to the prefetcher", func() bool { return h.pf.Pending() == files })
	if !h.svc.Cancel(job.ID) {
		t.Fatal("the staging job was not live")
	}
	if stats, err := job.Wait(); !errors.Is(err, context.Canceled) || stats.BytesStaged != 0 {
		t.Fatalf("cancelled job = %+v, %v; want context.Canceled before anything was staged", stats, err)
	}
	eventually(t, "the cancelled job's transfers reported", func() bool { return h.pf.Pending() == 0 })
	if n := h.pf.TasksDone.Load(); n != files {
		t.Fatalf("%d of the cancelled job's %d transfers landed", n, files)
	}

	stats, err := h.svc.RunJob(context.Background(), repos)
	if err != nil || stats.FamiliesDone != files || stats.BytesStaged != bytesHeld {
		t.Fatalf("second job = %+v, %v; want %d families and %d bytes staged", stats, err, files, bytesHeld)
	}
	if n := h.pf.Pending(); n != 0 || h.pf.TasksDone.Load() != 2*files {
		t.Fatalf("prefetcher: %d tasks pending, %d done; want 0 and %d", n, h.pf.TasksDone.Load(), 2*files)
	}
}

// TestServiceDoesNotCrawlItsOwnDirectories: a site crawled from its root
// holds a directory the service writes itself — the copies staged to it.
// They are not the site's data: listed as input, every crawl of the site
// would extract metadata about another site's files.
func TestServiceDoesNotCrawlItsOwnDirectories(t *testing.T) {
	h := newHarness(t, []siteSpec{
		{name: "petrel", workers: 0},
		{name: "theta", workers: 4},
	}, scheduler.LocalPolicy{})
	seedScience(t, h.sites["petrel"], "/data")
	own := seedScience(t, h.sites["theta"], "/mdf")

	if stats, err := h.svc.RunJob(context.Background(), []journal.RepoSpec{{Site: "petrel", Roots: []string{"/data"}, Grouper: "single"}}); err != nil || stats.BytesStaged == 0 {
		t.Fatalf("staging job = %+v, %v", stats, err)
	}
	theta, _ := h.svc.Site("theta")
	if countFiles(t, h.sites["theta"], theta.StagePath) == 0 {
		t.Fatal("the staging job left no staged copies on theta")
	}
	for round := 1; round <= 3; round++ {
		stats, err := h.svc.RunJob(context.Background(), []journal.RepoSpec{{Site: "theta", Roots: []string{"/"}, Grouper: "single"}})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Crawl.FamiliesEmitted != int64(own) {
			t.Fatalf("round %d crawled %d families from /, the site holds %d files of its own",
				round, stats.Crawl.FamiliesEmitted, own)
		}
	}
}

// TestFinishedTableIsBounded: the finished table keeps the newest jobs to
// end, up to its bound. The newest answers with its stats; an evicted one
// is unknown without a journal and, with one, answers complete without
// stats from the journal's fold. The listing is what LookupJob answers.
func TestFinishedTableIsBounded(t *testing.T) {
	repo := journal.RepoSpec{Site: "theta", Roots: []string{"/mdf"}, Grouper: "single"}
	for _, journaled := range []bool{false, true} {
		t.Run(fmt.Sprintf("journal=%v", journaled), func(t *testing.T) {
			w := newWorld(t, []siteSpec{{name: "theta", workers: 2}})
			if journaled {
				w.jdir = newDevice()
			}
			seedScience(t, w.sites["theta"], "/mdf")
			h := w.start(t, node{policy: scheduler.LocalPolicy{}})
			const keep, runs = 2, 5
			h.svc.jobs.keep = keep
			var ids []string
			for i := 0; i < runs; i++ {
				stats, err := h.svc.RunJob(context.Background(), []journal.RepoSpec{repo})
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, stats.JobID)
			}
			h.svc.jobs.mu.Lock()
			retained := len(h.svc.jobs.finished)
			h.svc.jobs.mu.Unlock()
			if retained != keep {
				t.Fatalf("finished table holds %d, want %d", retained, keep)
			}
			newest, ok := h.svc.LookupJob(ids[runs-1])
			if !ok || !newest.Complete || newest.Stats == nil || newest.Stats.FamiliesDone == 0 ||
				newest.Record.State != registry.JobComplete || newest.Record.GroupsDone == 0 {
				t.Fatalf("newest job = %+v, %v; want complete with stats", newest, ok)
			}
			old, ok := h.svc.LookupJob(ids[0])
			listed := len(h.svc.JobRecords())
			switch {
			case !journaled && (ok || listed != keep):
				t.Fatalf("without a journal the evicted job answers %+v, %v and %d are listed; want unknown, %d",
					old, ok, listed, keep)
			case journaled && (!ok || !old.Complete || old.Stats != nil || old.Record.State != registry.JobComplete ||
				old.Record.Recovered || listed != runs):
				t.Fatalf("with a journal the evicted job answers %+v, %v and %d are listed; want complete without stats, %d",
					old, ok, listed, runs)
			}
		})
	}
}

// TestRecoverAdvancesJobIDs: recovery moves the ID counter past every
// journaled ID of the service's own form and never back, so a job
// submitted after it gets a fresh ID; an ID of another form leaves the
// counter alone.
func TestRecoverAdvancesJobIDs(t *testing.T) {
	for _, tc := range []struct {
		node      string
		journaled []string
		next      string
	}{
		{"", []string{"job-7", "job-3", "imported-abc", "job-n1-9"}, "job-8"},
		{"n1", []string{"job-n1-7", "job-n1-3", "job-12", "job-n2-20"}, "job-n1-8"},
	} {
		t.Run("node="+tc.node, func(t *testing.T) {
			jnl := journaledJob(t, tc.journaled...)
			h := newHarnessCfg(t, []siteSpec{{name: "theta", workers: 2}}, scheduler.LocalPolicy{}, func(cfg *Config) {
				cfg.Journal = jnl
				if tc.node != "" {
					cfg.Cluster = cluster.NewNode(cluster.NewCoordinator(cluster.Options{Journal: jnl}), tc.node, "")
				}
			})
			seedScience(t, h.sites["theta"], "/mdf")
			if _, err := h.svc.Recover(context.Background()); err != nil {
				t.Fatal(err)
			}
			h.svc.RecoveryWait()
			job, err := h.svc.Submit(context.Background(), journal.JobSpec{Repos: []journal.RepoSpec{
				{Site: "theta", Roots: []string{"/mdf"}, Grouper: "single"}}})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := job.Wait(); err != nil || job.ID != tc.next {
				t.Fatalf("job %s ended with %v; want %s, clean", job.ID, err, tc.next)
			}
		})
	}
}

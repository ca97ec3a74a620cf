package core

// crash_test.go is the kill-and-restart chaos suite for the durable job
// journal: a service "process" is torn down SIGKILL-style at a seeded,
// randomized journal write point (dropping every record not yet fsynced),
// a fresh service is started over the same journal directory and data
// store, and the recovery pass must bring every pre-crash job to a
// terminal state with a destination byte-identical to an uncrashed
// control run — without re-invoking any extractor whose completion
// survived in the journal. Some seeds additionally damage the journal
// tail (truncation or a bit flip) between the two lives, modeling a torn
// disk write.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xtract/internal/cache"
	"xtract/internal/clock"
	"xtract/internal/crawler"
	"xtract/internal/extractors"
	"xtract/internal/faas"
	"xtract/internal/family"
	"xtract/internal/journal"
	"xtract/internal/obs"
	"xtract/internal/queue"
	"xtract/internal/registry"
	"xtract/internal/scheduler"
	"xtract/internal/store"
	"xtract/internal/transfer"
	"xtract/internal/validate"
)

// crashSeeds is how many independent kill points the suite exercises.
const crashSeeds = 24

// invLog records extractor invocations keyed by group and extractor, so
// the suite can prove journaled completions are never re-run.
type invLog struct {
	mu sync.Mutex
	m  map[string]int
}

func newInvLog() *invLog { return &invLog{m: make(map[string]int)} }

func invKey(groupID, extractor string) string { return groupID + "\x1f" + extractor }

func (l *invLog) add(key string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.m[key]++
}

func (l *invLog) count(key string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.m[key]
}

func (l *invLog) total() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, c := range l.m {
		n += c
	}
	return n
}

// countingExtractor wraps an extractor, logging each real invocation
// (cache hits never reach Extract). delay slows extraction down for the
// tests that must cancel or kill mid-run.
type countingExtractor struct {
	inner extractors.Extractor
	log   *invLog
	delay time.Duration
}

func (c *countingExtractor) Name() string                     { return c.inner.Name() }
func (c *countingExtractor) Version() string                  { return extractors.VersionOf(c.inner) }
func (c *countingExtractor) Container() string                { return c.inner.Container() }
func (c *countingExtractor) Applies(info store.FileInfo) bool { return c.inner.Applies(info) }

func (c *countingExtractor) Extract(g *family.Group, files map[string][]byte) (map[string]interface{}, error) {
	c.log.add(invKey(g.ID, c.inner.Name()))
	if c.delay > 0 {
		time.Sleep(c.delay)
	}
	return c.inner.Extract(g, files)
}

// countingLibrary wraps the default library, preserving registration
// order (order decides each group's initial extractor).
func countingLibrary(log *invLog, delay time.Duration) *extractors.Library {
	base := extractors.DefaultLibrary()
	var wrapped []extractors.Extractor
	for _, name := range base.Names() {
		e, err := base.Get(name)
		if err != nil {
			panic(err)
		}
		wrapped = append(wrapped, &countingExtractor{inner: e, log: log, delay: delay})
	}
	return extractors.NewLibrary(wrapped...)
}

// crashLife is one service "process": everything except the journal
// directory, the site's data store, and the user's destination dies with
// it (registry, queues, result cache — exactly what a real crash loses).
type crashLife struct {
	svc    *Service
	valsvc *validate.Service
	jnl    *journal.Journal
	queues []*queue.Queue
	ctx    context.Context
	cancel context.CancelFunc
}

func startCrashLife(t *testing.T, jpath string, dataFS, dest *store.MemFS, inv *invLog, delay time.Duration) *crashLife {
	t.Helper()
	jdir, err := journal.OSDir(jpath)
	if err != nil {
		t.Fatal(err)
	}
	return startCrashLifeOn(t, jdir, dataFS, dest, inv, delay)
}

// startCrashLifeOn is startCrashLife over any journal directory.
func startCrashLifeOn(t *testing.T, jdir journal.Dir, dataFS, dest *store.MemFS, inv *invLog, delay time.Duration) *crashLife {
	t.Helper()
	clk := clock.NewReal()
	jnl, err := journal.Open(jdir, journal.Options{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	fsvc := faas.NewService(clk, faas.Costs{})
	fabric := transfer.NewFabric(clk)
	families, prefetch, prefetchDone, results := NewQueues(clk)
	svc := New(Config{
		Clock: clk, FaaS: fsvc, Fabric: fabric,
		Registry:      registry.New(clk, 0),
		Library:       countingLibrary(inv, delay),
		PrefetchQueue: prefetch,
		PrefetchDone:  prefetchDone, ResultQueue: results,
		Policy:     scheduler.LocalPolicy{},
		Checkpoint: true,
		Cache:      cache.New(0),
		Journal:    jnl,
		Obs:        obs.New(clk), // families_done is how a test watches a live pump
	})
	ctx, cancel := context.WithCancel(context.Background())
	fabric.AddEndpoint("site", dataFS)
	ep := faas.NewEndpoint("ep-site", 4, clk)
	fsvc.RegisterEndpoint(ep)
	if err := ep.Start(ctx); err != nil {
		t.Fatal(err)
	}
	svc.AddSite(&Site{
		Name: "site", Store: dataFS, TransferID: "site",
		Compute: ep, StagePath: "/xtract-stage",
	})
	if err := svc.RegisterExtractors(); err != nil {
		t.Fatal(err)
	}
	pf := transfer.NewPrefetcher(fabric, prefetch, prefetchDone, clk)
	go pf.Run(ctx, 2)
	valsvc := validate.NewService(validate.Passthrough{}, results, dest)
	go valsvc.Run(ctx)
	return &crashLife{
		svc: svc, valsvc: valsvc, jnl: jnl, ctx: ctx, cancel: cancel,
		queues: []*queue.Queue{families, prefetch, prefetchDone, results},
	}
}

func crashRepos(inv *invLog, delay time.Duration) []RepoSpec {
	return []RepoSpec{{
		SiteName:    "site",
		Roots:       []string{"/data"},
		Grouper:     crawler.SingleFileGrouper(countingLibrary(inv, delay)),
		GrouperName: "single",
		// Single-file families with deterministic IDs: destination doc
		// paths and contents are identical run to run, which is what lets
		// the suite demand byte equality against the control.
		NoMinTransfers: true,
	}}
}

func seedCrashCorpus(t *testing.T) *store.MemFS {
	t.Helper()
	fs := store.NewMemFS("site", nil)
	seedScience(t, fs, "/data/mdf")
	seedScience(t, fs, "/data/mdf2")
	return fs
}

// snapshotDocs reads every validated document at the destination.
func snapshotDocs(t *testing.T, dest *store.MemFS) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	infos, err := dest.List("/metadata")
	if err != nil {
		return out // no docs yet
	}
	for _, info := range infos {
		if info.IsDir {
			continue
		}
		data, err := dest.Read(info.Path)
		if err != nil {
			t.Fatal(err)
		}
		out[info.Path] = data
	}
	return out
}

func docsEqual(a, b map[string][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if !bytes.Equal(v, b[k]) {
			return false
		}
	}
	return true
}

// crashControl runs the workload once, uncrashed, and reports the ground
// truth: destination documents, extractor invocations, and the total
// journal record count (which bounds the seeded kill points).
type crashControlResult struct {
	docs    map[string][]byte
	steps   int
	records int64
}

var (
	crashControlOnce sync.Once
	crashControlRes  crashControlResult
)

func crashControlRun(t *testing.T) crashControlResult {
	t.Helper()
	crashControlOnce.Do(func() {
		dataFS := seedCrashCorpus(t)
		dest := store.NewMemFS("user-dest", nil)
		inv := newInvLog()
		life := startCrashLife(t, t.TempDir(), dataFS, dest, inv, 0)
		defer life.cancel()
		stats, err := life.svc.RunJob(life.ctx, crashRepos(inv, 0))
		if err != nil {
			t.Fatalf("control run: %v", err)
		}
		if stats.FamiliesFailed != 0 || stats.StepsDeadLettered != 0 {
			t.Fatalf("control run not clean: %+v", stats)
		}
		docs := waitForDocs(t, life.valsvc, dest, int(stats.FamiliesDone))
		appends, _, _ := life.jnl.Stats()
		if err := life.jnl.Close(); err != nil {
			t.Fatalf("control journal close: %v", err)
		}
		crashControlRes = crashControlResult{docs: docs, steps: inv.total(), records: appends}
	})
	if crashControlRes.records == 0 {
		t.Fatal("control run unavailable (failed in another test)")
	}
	return crashControlRes
}

// waitForDocs drains validation until the destination holds want docs.
func waitForDocs(t *testing.T, valsvc *validate.Service, dest *store.MemFS, want int) map[string][]byte {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		valsvc.Drain()
		docs := snapshotDocs(t, dest)
		if len(docs) >= want {
			return docs
		}
		if time.Now().After(deadline) {
			t.Fatalf("validation stalled: %d/%d documents", len(docs), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// damageTail corrupts the lexically-last journal segment: flip=false
// truncates up to 20 bytes (a torn write); flip=true flips one bit in
// the final 30 bytes (media corruption). No-op on tiny segments.
func damageTail(t *testing.T, jpath string, rng *rand.Rand, flip bool) {
	t.Helper()
	entries, err := os.ReadDir(jpath)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".wal" {
			segs = append(segs, e.Name())
		}
	}
	if len(segs) == 0 {
		return
	}
	// ReadDir sorts by name and segment names embed zero-padded seqs, so
	// the last entry is the newest segment.
	p := filepath.Join(jpath, segs[len(segs)-1])
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 24 {
		return
	}
	if flip {
		i := len(data) - 1 - rng.Intn(min(30, len(data)))
		data[i] ^= 1 << uint(rng.Intn(8))
	} else {
		data = data[:len(data)-(1+rng.Intn(min(20, len(data)-1)))]
	}
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func countGoroutines() int { return runtime.NumGoroutine() }

// TestCrashRecoverySeeds is the tentpole chaos suite: for each seed the
// service is killed at a randomized journal write point, restarted, and
// required to converge — every pre-crash job terminal, destination
// byte-identical to the control, and zero extractor re-invocations for
// completions that survived in the journal. Seeds ≡ 1 (mod 3) truncate
// the journal tail before restart; seeds ≡ 2 (mod 3) flip a bit in it.
func TestCrashRecoverySeeds(t *testing.T) {
	control := crashControlRun(t)
	t.Logf("control: %d docs, %d extractor invocations, %d journal records",
		len(control.docs), control.steps, control.records)
	for seed := int64(1); seed <= crashSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%02d", seed), func(t *testing.T) {
			t.Parallel()
			runCrashSeed(t, seed, control)
		})
	}
}

func runCrashSeed(t *testing.T, seed int64, control crashControlResult) {
	rng := rand.New(rand.NewSource(seed))
	dataFS := seedCrashCorpus(t)
	dest := store.NewMemFS("user-dest", nil)
	jpath := t.TempDir()

	// ---- Life 1: run until the seeded kill point. ----
	inv1 := newInvLog()
	life1 := startCrashLife(t, jpath, dataFS, dest, inv1, 0)

	// Kill strictly before the job-terminal record (the last of the run)
	// so recovery always has live work to resume. The armed kill fires
	// inside the accepting append itself — no watcher race can let the
	// terminal record slip through.
	killAfter := 1 + rng.Int63n(control.records-1)
	life1.jnl.KillAtAppend(killAfter)
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		<-life1.jnl.Killed()
		life1.cancel() // every goroutine of the old process stops
	}()

	jobDone := make(chan error, 1)
	go func() {
		_, err := life1.svc.RunJob(life1.ctx, crashRepos(inv1, 0))
		jobDone <- err
	}()
	select {
	case <-killed:
	case <-time.After(60 * time.Second):
		t.Fatalf("seed=%d: kill point %d never reached", seed, killAfter)
	}
	select {
	case <-jobDone:
	case <-time.After(60 * time.Second):
		t.Fatalf("seed=%d: job did not observe the kill", seed)
	}

	// Some seeds damage the tail before restart, on top of whatever the
	// kill already dropped.
	switch seed % 3 {
	case 1:
		damageTail(t, jpath, rng, false)
	case 2:
		damageTail(t, jpath, rng, true)
	}

	// ---- Life 2: restart over the same journal and stores. ----
	inv2 := newInvLog()
	life2 := startCrashLife(t, jpath, dataFS, dest, inv2, 0)
	defer func() {
		life2.cancel()
		_ = life2.jnl.Close()
	}()

	// What recovery can see is what survived fsync and damage; those
	// completions must never re-run.
	st := life2.jnl.Recovered()
	reconciled := make(map[string]bool)
	for _, js := range st.Jobs {
		if js.Terminal {
			continue
		}
		for _, sd := range js.Steps {
			if sd.CacheKey != nil && len(sd.Metadata) > 0 {
				reconciled[invKey(sd.GroupID, sd.Extractor)] = true
			}
		}
	}

	status, err := life2.svc.Recover(life2.ctx)
	if err != nil {
		t.Fatalf("seed=%d: recover: %v", seed, err)
	}
	life2.svc.RecoveryWait()
	t.Logf("seed=%d kill@%d/%d journal={records:%d torn:%v corrupt:%d} recovery={resumed:%d reconciled:%d}",
		seed, killAfter, control.records, status.Records, status.TornTail,
		status.CorruptSegments, status.Resumed, status.StepsReconciled)

	if len(st.Jobs) == 0 {
		// The crash predated the submission record's fsync: the client
		// never had an acknowledged job. Model its retry with a fresh
		// submission, which must still converge to the control.
		if _, err := life2.svc.RunJob(life2.ctx, crashRepos(inv2, 0)); err != nil {
			t.Fatalf("seed=%d: resubmit after total journal loss: %v", seed, err)
		}
	} else {
		if status.Resumed+status.Terminal+status.Cancelled != len(st.Jobs) {
			t.Fatalf("seed=%d: recovery lost jobs: %+v", seed, status)
		}
		for id := range st.Jobs {
			rec, err := life2.svc.cfg.Registry.Job(id)
			if err != nil {
				t.Fatalf("seed=%d: recovered job %s missing from registry: %v", seed, id, err)
			}
			if !rec.Recovered {
				t.Fatalf("seed=%d: job %s not flagged recovered", seed, id)
			}
			if rec.State != registry.JobComplete {
				t.Fatalf("seed=%d: job %s state %s after recovery", seed, id, rec.State)
			}
		}
	}

	// Convergence: the destination ends byte-identical to the uncrashed
	// control run.
	deadline := time.Now().Add(30 * time.Second)
	for {
		life2.valsvc.Drain()
		if docsEqual(snapshotDocs(t, dest), control.docs) {
			break
		}
		if time.Now().After(deadline) {
			docs := snapshotDocs(t, dest)
			t.Fatalf("seed=%d: destination never converged: %d docs vs control %d",
				seed, len(docs), len(control.docs))
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Zero re-invocation: every journaled pre-crash completion replayed
	// from the reconciled cache, never through an extractor.
	for key := range reconciled {
		if n := inv2.count(key); n > 0 {
			t.Errorf("seed=%d: journaled step %q re-invoked %d times after recovery", seed, key, n)
		}
	}
	if status.StepsReconciled != len(reconciled) {
		t.Errorf("seed=%d: reconciled %d steps, journal held %d", seed, status.StepsReconciled, len(reconciled))
	}
}

// TestGracefulShutdownResume is the SIGTERM path: BeginShutdown suppresses
// terminal records for jobs the restart interrupts, the journal closes
// cleanly (flushing buffered appends), and the next life resumes the job
// to the same converged destination. It also checks the first life's
// goroutines actually wind down.
func TestGracefulShutdownResume(t *testing.T) {
	control := crashControlRun(t)
	dataFS := seedCrashCorpus(t)
	dest := store.NewMemFS("user-dest", nil)
	jpath := t.TempDir()

	baseline := countGoroutines()
	inv1 := newInvLog()
	// Slow extraction slightly so the shutdown lands mid-job.
	life1 := startCrashLife(t, jpath, dataFS, dest, inv1, 2*time.Millisecond)

	drainCh := make(chan struct{})
	var appended atomic.Int64
	life1.jnl.Observe(func(string) {
		if appended.Add(1) == 5 {
			close(drainCh)
		}
	}, nil)
	jobDone := make(chan error, 1)
	go func() {
		_, err := life1.svc.RunJob(life1.ctx, crashRepos(inv1, 2*time.Millisecond))
		jobDone <- err
	}()
	select {
	case <-drainCh:
	case <-time.After(60 * time.Second):
		t.Fatal("job produced no journal records")
	}

	// The serve shutdown sequence: mark the drain, then cancel.
	life1.svc.BeginShutdown()
	life1.cancel()
	select {
	case err := <-jobDone:
		if err == nil {
			t.Fatal("job completed despite shutdown (shrink the corpus or slow extraction)")
		}
	case <-time.After(60 * time.Second):
		t.Fatal("job did not stop on shutdown")
	}
	if err := life1.jnl.Close(); err != nil {
		t.Fatalf("graceful journal close: %v", err)
	}

	// Goroutine hygiene: everything the first life started winds down.
	wound := false
	for i := 0; i < 200; i++ {
		if countGoroutines() <= baseline+3 {
			wound = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !wound {
		t.Errorf("goroutines leaked after shutdown: baseline %d, now %d", baseline, countGoroutines())
	}

	// Restart: the drained job must come back as live work, not as a
	// cancellation, and converge.
	inv2 := newInvLog()
	life2 := startCrashLife(t, jpath, dataFS, dest, inv2, 0)
	defer func() {
		life2.cancel()
		_ = life2.jnl.Close()
	}()
	st := life2.jnl.Recovered()
	if len(st.Jobs) != 1 {
		t.Fatalf("journal holds %d jobs, want 1", len(st.Jobs))
	}
	for _, js := range st.Jobs {
		if js.Terminal {
			t.Fatalf("drained job journaled as terminal (%s): shutdown must suspend, not cancel", js.State)
		}
	}
	status, err := life2.svc.Recover(life2.ctx)
	if err != nil {
		t.Fatal(err)
	}
	if status.Resumed != 1 {
		t.Fatalf("recovery resumed %d jobs, want 1: %+v", status.Resumed, status)
	}
	life2.svc.RecoveryWait()
	deadline := time.Now().Add(30 * time.Second)
	for !docsEqual(snapshotDocs(t, dest), control.docs) {
		if time.Now().After(deadline) {
			t.Fatalf("destination never converged after graceful restart")
		}
		life2.valsvc.Drain()
		time.Sleep(2 * time.Millisecond)
	}
}

// TestCancelledJobStaysCancelledAfterRestart pins durable cancellation:
// cancel → crash → recover must leave the job CANCELLED, resuming
// nothing and invoking no extractors.
func TestCancelledJobStaysCancelledAfterRestart(t *testing.T) {
	dataFS := seedCrashCorpus(t)
	dest := store.NewMemFS("user-dest", nil)
	jpath := t.TempDir()

	inv1 := newInvLog()
	// Slow extraction so the cancel lands while work is in flight.
	life1 := startCrashLife(t, jpath, dataFS, dest, inv1, 2*time.Millisecond)
	jobCtx, cancelJob := context.WithCancel(life1.ctx)
	defer cancelJob()
	gate := make(chan struct{})
	var appended atomic.Int64
	life1.jnl.Observe(func(string) {
		if appended.Add(1) == 3 {
			close(gate)
		}
	}, nil)
	go func() {
		<-gate
		cancelJob() // the DELETE /api/v1/jobs/{id} path cancels this context
	}()
	job, err := life1.svc.Submit(jobCtx, crashRepos(inv1, 2*time.Millisecond), JobOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(); err == nil {
		t.Fatal("job completed before the cancel landed")
	}
	jobID := job.ID
	rec, err := life1.svc.cfg.Registry.Job(jobID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != registry.JobCancelled {
		t.Fatalf("job state %s after cancel", rec.State)
	}
	// Graceful close so the cancellation record is durable, then "crash".
	if err := life1.jnl.Close(); err != nil {
		t.Fatal(err)
	}
	life1.cancel()

	inv2 := newInvLog()
	life2 := startCrashLife(t, jpath, dataFS, dest, inv2, 0)
	defer func() {
		life2.cancel()
		_ = life2.jnl.Close()
	}()
	js, ok := life2.jnl.Recovered().Jobs[jobID]
	if !ok || !js.Terminal || !js.Cancelled {
		t.Fatalf("journal lost the durable cancellation: %+v", js)
	}
	status, err := life2.svc.Recover(life2.ctx)
	if err != nil {
		t.Fatal(err)
	}
	if status.Cancelled != 1 || status.Resumed != 0 {
		t.Fatalf("cancelled job resurrected: %+v", status)
	}
	life2.svc.RecoveryWait()
	rec2, err := life2.svc.cfg.Registry.Job(jobID)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.State != registry.JobCancelled || !rec2.Recovered {
		t.Fatalf("recovered job = %+v, want CANCELLED+recovered", rec2)
	}
	if n := inv2.total(); n != 0 {
		t.Fatalf("cancelled job ran %d extractor invocations after restart", n)
	}
}

// heldDir is a journal directory whose segment fsyncs block until release
// closes and, once lost is set, fail instead of reaching the store: the
// batch in flight when the process died never landed.
type heldDir struct {
	journal.Dir
	release chan struct{}
	lost    atomic.Bool
}

type heldFile struct {
	journal.File
	d *heldDir
}

func (d *heldDir) Create(name string) (journal.File, error) {
	f, err := d.Dir.Create(name)
	if err != nil {
		return nil, err
	}
	return heldFile{File: f, d: d}, nil
}

func (f heldFile) Sync() error {
	<-f.d.release
	if f.d.lost.Load() {
		return fmt.Errorf("power lost")
	}
	return f.File.Sync()
}

// TestCrashBeforeSubmissionDurableLeavesNoTrace is the crash half of the
// submission gate. The job's whole run happens behind a held job_submitted
// fsync and the process dies inside that batch: nothing it did is visible
// afterwards — the restarted journal does not know the job, the destination
// holds no document — and the next submission is handed the same job ID
// over a clean slate and converges to the control.
func TestCrashBeforeSubmissionDurableLeavesNoTrace(t *testing.T) {
	control := crashControlRun(t)
	dataFS := seedCrashCorpus(t)
	dest := store.NewMemFS("user-dest", nil)
	disk := store.NewMemFS("journal-disk", nil)
	held := &heldDir{Dir: journal.StoreDir(disk, "/wal"), release: make(chan struct{})}

	inv1 := newInvLog()
	life1 := startCrashLifeOn(t, held, dataFS, dest, inv1, 0)
	// The last record before job_terminal: the kill lands with the job's
	// work all but done, every record of it in the one unfinished batch.
	life1.jnl.KillAtAppend(control.records - 1)
	submitted := make(chan *Job, 1)
	go func() {
		job, err := life1.svc.Submit(life1.ctx, crashRepos(inv1, 0), JobOptions{})
		if err != nil {
			t.Error(err)
		}
		submitted <- job
	}()
	select {
	case <-life1.jnl.Killed():
	case <-time.After(60 * time.Second):
		t.Fatal("kill point never reached behind the held fsync")
	}
	// The pump outlives the emulated kill until the test cancels it; let
	// it finish every family, so everything it could leak is ready to.
	deadline := time.Now().Add(30 * time.Second)
	for life1.svc.obsFamiliesDone.Value() < float64(len(control.docs)) {
		if time.Now().After(deadline) {
			t.Fatalf("only %.0f/%d families finished behind the held fsync",
				life1.svc.obsFamiliesDone.Value(), len(control.docs))
		}
		time.Sleep(time.Millisecond)
	}
	if sent, _ := life1.queues[3].Stats(); sent != 0 {
		t.Fatalf("%d results left the pump of a job that was never durable", sent)
	}
	life1.cancel()
	eventually(t, "the cancelled job leaving the live table behind the held fsync",
		func() bool { return liveJobs(life1.svc) == 0 })
	held.lost.Store(true)
	close(held.release)
	// Submit led the batch and sat in the held fsync; with the device back
	// it resolves — killed, so its gate stays shut — and returns the job.
	job := <-submitted
	if _, err := job.Wait(); err == nil {
		t.Fatal("the job reported success without a durable submission")
	}
	jobID := job.ID
	if sent, _ := life1.queues[3].Stats(); sent != 0 {
		t.Fatalf("%d results left the pump once the dead journal's fsync returned", sent)
	}
	if docs := snapshotDocs(t, dest); len(docs) != 0 {
		t.Fatalf("%d documents written by a job that was never durable", len(docs))
	}

	inv2 := newInvLog()
	life2 := startCrashLifeOn(t, journal.StoreDir(disk, "/wal"), dataFS, dest, inv2, 0)
	defer func() {
		life2.cancel()
		_ = life2.jnl.Close()
	}()
	if st := life2.jnl.Recovered(); len(st.Jobs) != 0 || st.LastSeq != 0 {
		t.Fatalf("restarted journal knows %d jobs through seq %d, want nothing", len(st.Jobs), st.LastSeq)
	}
	stats, err := life2.svc.RunJob(life2.ctx, crashRepos(inv2, 0))
	if err != nil {
		t.Fatalf("resubmission: %v", err)
	}
	if stats.JobID != jobID {
		t.Fatalf("resubmission got %s, want the lost job's ID %s re-issued", stats.JobID, jobID)
	}
	if docs := waitForDocs(t, life2.valsvc, dest, int(stats.FamiliesDone)); !docsEqual(docs, control.docs) {
		t.Fatalf("resubmitted job wrote %d documents that differ from the control's %d", len(docs), len(control.docs))
	}
}

package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"xtract/internal/clock"
	"xtract/internal/crawler"
	"xtract/internal/extractors"
	"xtract/internal/faas"
	"xtract/internal/registry"
	"xtract/internal/scheduler"
	"xtract/internal/store"
	"xtract/internal/transfer"
)

// rendezvousHook blocks every dispatch until two distinct endpoints have
// entered dispatch, proving task submission for different sites happens
// concurrently. Under the old single-goroutine pump the first
// SubmitBatch would stall the loop and the second site's batch could
// never start, so the rendezvous only resolves via its escape timeout.
type rendezvousHook struct {
	mu   sync.Mutex
	seen map[string]time.Time
	both chan struct{}
}

func newRendezvousHook() *rendezvousHook {
	return &rendezvousHook{seen: make(map[string]time.Time), both: make(chan struct{})}
}

func (r *rendezvousHook) DispatchFault(ep string) error {
	r.mu.Lock()
	if _, ok := r.seen[ep]; !ok {
		r.seen[ep] = time.Now()
		if len(r.seen) == 2 {
			close(r.both)
		}
	}
	r.mu.Unlock()
	select {
	case <-r.both:
	case <-time.After(10 * time.Second): // escape hatch: fail, don't hang
	}
	return nil
}

func (r *rendezvousHook) HeartbeatDrop(string) bool { return false }
func (r *rendezvousHook) EndpointCrash(string) bool { return false }

// met reports whether both endpoints dispatched, and the gap between
// their first dispatches.
func (r *rendezvousHook) met() (bool, time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.seen) < 2 {
		return false, 0
	}
	var ts []time.Time
	for _, at := range r.seen {
		ts = append(ts, at)
	}
	gap := ts[0].Sub(ts[1])
	if gap < 0 {
		gap = -gap
	}
	return true, gap
}

// TestTwoSiteShardsSubmitConcurrently runs one job over two compute
// sites and requires both sites' dispatcher shards to be inside task
// submission at the same moment.
func TestTwoSiteShardsSubmitConcurrently(t *testing.T) {
	h := newHarness(t, []siteSpec{
		{name: "alpha", workers: 2},
		{name: "beta", workers: 2},
	}, scheduler.LocalPolicy{})
	defer h.close()
	seedScience(t, h.sites["alpha"], "/data")
	seedScience(t, h.sites["beta"], "/data")

	hook := newRendezvousHook()
	h.fsvc.SetFaults(hook)

	stats, err := h.svc.RunJob(context.Background(), []RepoSpec{
		{SiteName: "alpha", Roots: []string{"/data"}, Grouper: crawler.SingleFileGrouper(extractors.DefaultLibrary())},
		{SiteName: "beta", Roots: []string{"/data"}, Grouper: crawler.SingleFileGrouper(extractors.DefaultLibrary())},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FamiliesFailed != 0 {
		t.Fatalf("families failed: %+v", stats)
	}
	met, gap := hook.met()
	if !met {
		t.Fatal("only one site ever dispatched: shards are serialized")
	}
	// The rendezvous releases both sides together, so the first-dispatch
	// gap is the time one shard waited for the other — small when they
	// run concurrently, the full escape timeout when serialized.
	if gap > 5*time.Second {
		t.Fatalf("first dispatches %s apart: shards did not overlap", gap)
	}
	t.Logf("two-site dispatch overlap: first dispatches %s apart", gap)
}

// dropHeartbeats silences every endpoint heartbeat, so only the pump's
// timer-driven CheckHeartbeats scanner can notice the endpoint is gone.
type dropHeartbeats struct{}

func (dropHeartbeats) DispatchFault(string) error { return nil }
func (dropHeartbeats) HeartbeatDrop(string) bool  { return true }
func (dropHeartbeats) EndpointCrash(string) bool  { return false }

// TestHeartbeatScannerResubmitsMidBurst kills an endpoint's heartbeats
// while the pump is continuously busy with completions. The old pump
// only scanned liveness on idle iterations, so a busy burst deferred
// loss detection indefinitely; the timer-driven scanner must declare the
// endpoint dead mid-burst, mark its in-flight tasks LOST, and the job
// must converge with those steps resubmitted.
func TestHeartbeatScannerResubmitsMidBurst(t *testing.T) {
	clk := clock.NewReal()
	fsvc := faas.NewService(clk, faas.Costs{})
	fsvc.HeartbeatTimeout = 30 * time.Millisecond
	fsvc.SetFaults(dropHeartbeats{})
	fabric := transfer.NewFabric(clk)
	_, prefetch, prefetchDone, results := NewQueues(clk)
	svc := New(Config{
		Clock: clk, FaaS: fsvc, Fabric: fabric,
		Registry: registry.New(clk, 0), Library: extractors.DefaultLibrary(),
		PrefetchQueue: prefetch,
		PrefetchDone:  prefetchDone, ResultQueue: results,
		Policy:          scheduler.LocalPolicy{},
		XtractBatchSize: 2, FuncXBatchSize: 4,
		Retry: RetryPolicy{
			MaxAttempts: 4,
			BaseBackoff: 2 * time.Millisecond,
			MaxBackoff:  10 * time.Millisecond,
			JobBudget:   512,
		},
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fs := store.NewMemFS("mira", nil)
	fabric.AddEndpoint("mira", fs)
	ep := faas.NewEndpoint("ep-mira", 2, clk)
	// Slow tasks keep completions flowing for much longer than the
	// heartbeat timeout, so the death lands mid-burst with tasks in
	// flight, never during an idle tail.
	ep.ExecOverheadPerTask = 4 * time.Millisecond
	fsvc.RegisterEndpoint(ep)
	if err := ep.Start(ctx); err != nil {
		t.Fatal(err)
	}
	svc.AddSite(&Site{Name: "mira", Store: fs, TransferID: "mira", Compute: ep})
	if err := svc.RegisterExtractors(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := fs.Write(fmt.Sprintf("/d/f%02d.txt", i),
			[]byte("materials metadata sample for heartbeat chaos")); err != nil {
			t.Fatal(err)
		}
	}

	stats, err := svc.RunJob(context.Background(), []RepoSpec{{
		SiteName: "mira",
		Roots:    []string{"/d"},
		Grouper:  crawler.SingleFileGrouper(extractors.DefaultLibrary()),
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("stats=%+v", stats)
	if stats.TasksResubmitted == 0 {
		t.Fatal("heartbeat loss never detected mid-burst: no tasks resubmitted")
	}
	if stats.FamiliesDone+stats.FamiliesFailed != stats.Crawl.FamiliesEmitted {
		t.Fatalf("not converged: done(%d)+failed(%d) != emitted(%d)",
			stats.FamiliesDone, stats.FamiliesFailed, stats.Crawl.FamiliesEmitted)
	}
	rec, err := svc.cfg.Registry.Job(stats.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != registry.JobComplete {
		t.Fatalf("job state %s (err=%q, dead letters=%d): loss burst did not recover",
			rec.State, rec.Err, len(rec.DeadLetters))
	}
}

// TestOneHeartbeatScannerPerService: the liveness scanner belongs to the
// service, not to a job — it runs while any job is live and however many
// jobs come and go it holds one timer. (A scanner per job left one
// HeartbeatTimeout/4 timer behind for every job, however short.)
func TestOneHeartbeatScannerPerService(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	fsvc := faas.NewService(clk, faas.Costs{})
	fabric := transfer.NewFabric(clk)
	_, prefetch, prefetchDone, results := NewQueues(clk)
	svc := New(Config{
		Clock: clk, FaaS: fsvc, Fabric: fabric,
		Registry: registry.New(clk, 0), Library: extractors.DefaultLibrary(),
		PrefetchQueue: prefetch, PrefetchDone: prefetchDone, ResultQueue: results,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fs := store.NewMemFS("mira", nil)
	ep := faas.NewEndpoint("ep-mira", 2, clk)
	fsvc.RegisterEndpoint(ep)
	if err := ep.Start(ctx); err != nil {
		t.Fatal(err)
	}
	svc.AddSite(&Site{Name: "mira", Store: fs, TransferID: "mira", Compute: ep})
	if err := svc.RegisterExtractors(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Write("/d/f.txt", []byte("materials metadata sample")); err != nil {
		t.Fatal(err)
	}
	run := func() {
		t.Helper()
		stats, err := svc.RunJob(ctx, []RepoSpec{{SiteName: "mira", Roots: []string{"/d"},
			Grouper: crawler.SingleFileGrouper(extractors.DefaultLibrary())}})
		if err != nil || stats.FamiliesDone != 1 {
			t.Fatalf("job = %+v, %v", stats, err)
		}
	}
	// scannerGone waits for the scanner of the job that has just ended: it
	// has then armed its timer, if it was the first to need one.
	scannerGone := func() {
		svc.jobs.mu.Lock()
		gone := svc.jobs.scanDone
		svc.jobs.mu.Unlock()
		<-gone
	}
	run()
	scannerGone()
	timers := clk.PendingTimers()
	for i := 0; i < 100; i++ {
		run()
	}
	scannerGone()
	if now := clk.PendingTimers(); now != timers {
		t.Fatalf("%d timers pending after 100 more jobs, %d after the first", now, timers)
	}
}

// TestPumpWakeupAccounting checks the event-driven pump's headline
// property on a plain local job: it wakes for work, and (with no shared
// prefetch queue traffic) essentially never for nothing.
func TestPumpWakeupAccounting(t *testing.T) {
	h := newHarness(t, []siteSpec{{name: "theta", workers: 4}}, scheduler.LocalPolicy{})
	defer h.close()
	seedScience(t, h.sites["theta"], "/mdf")

	stats, err := h.svc.RunJob(context.Background(), []RepoSpec{{
		SiteName: "theta",
		Roots:    []string{"/mdf"},
		Grouper:  crawler.SingleFileGrouper(extractors.DefaultLibrary()),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.PumpWakeups == 0 {
		t.Fatal("no pump wakeups recorded")
	}
	if stats.PumpIdleWakeups > 2 {
		t.Fatalf("idle wakeups = %d (of %d): event sources are firing without work",
			stats.PumpIdleWakeups, stats.PumpWakeups)
	}
	if stats.Elapsed <= 0 {
		t.Fatalf("elapsed not recorded: %+v", stats)
	}
}

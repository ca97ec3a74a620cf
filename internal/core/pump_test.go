package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"xtract/internal/clock"
	"xtract/internal/crawler"
	"xtract/internal/family"
	"xtract/internal/journal"
	"xtract/internal/registry"
	"xtract/internal/scheduler"
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

func (r *rendezvousHook) HeartbeatDrop(string) bool      { return false }
func (r *rendezvousHook) EndpointCrash(string) bool      { return false }
func (r *rendezvousHook) SlowFault(string) time.Duration { return 0 }

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
	seedScience(t, h.sites["alpha"], "/data")
	seedScience(t, h.sites["beta"], "/data")

	hook := newRendezvousHook()
	h.fsvc.SetFaults(hook)

	stats, err := h.svc.RunJob(context.Background(), []journal.RepoSpec{
		{Site: "alpha", Roots: []string{"/data"}, Grouper: "single"},
		{Site: "beta", Roots: []string{"/data"}, Grouper: "single"},
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

// dropHeartbeats silences every endpoint heartbeat, so only the fabric's
// own liveness check, run at each endpoint's heartbeat tick, can notice
// the endpoint is gone.
type dropHeartbeats struct{}

func (dropHeartbeats) DispatchFault(string) error     { return nil }
func (dropHeartbeats) HeartbeatDrop(string) bool      { return true }
func (dropHeartbeats) EndpointCrash(string) bool      { return false }
func (dropHeartbeats) SlowFault(string) time.Duration { return 0 }

// TestHeartbeatScannerResubmitsMidBurst kills an endpoint's heartbeats
// while the pump is continuously busy with completions. A pump that
// scanned liveness on idle iterations deferred loss detection through a
// busy burst indefinitely; the fabric, checking at every endpoint
// heartbeat tick, must declare the endpoint dead mid-burst and mark its
// in-flight tasks LOST, and the job must converge with those steps
// resubmitted.
func TestHeartbeatScannerResubmitsMidBurst(t *testing.T) {
	h := newHarnessCfg(t, []siteSpec{{name: "mira", workers: 2}}, scheduler.LocalPolicy{}, func(cfg *Config) {
		cfg.FaaS.HeartbeatTimeout = 30 * time.Millisecond
		cfg.FaaS.SetFaults(dropHeartbeats{})
		cfg.XtractBatchSize, cfg.FuncXBatchSize = 2, 4
		cfg.Retry = RetryPolicy{MaxAttempts: 4, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 10 * time.Millisecond, JobBudget: 512}
	})
	// Slow tasks keep completions flowing for much longer than the
	// heartbeat timeout, so the death lands mid-burst with tasks in
	// flight, never during an idle tail. (Set before the first task
	// reaches a worker.)
	site, _ := h.svc.Site("mira")
	site.Compute.ExecOverheadPerTask = 4 * time.Millisecond
	for i := 0; i < 40; i++ {
		if err := h.sites["mira"].Write(fmt.Sprintf("/d/f%02d.txt", i),
			[]byte("materials metadata sample for heartbeat chaos")); err != nil {
			t.Fatal(err)
		}
	}

	stats, err := h.svc.RunJob(context.Background(), []journal.RepoSpec{{
		Site:    "mira",
		Roots:   []string{"/d"},
		Grouper: "single",
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
	rec, err := record(h.svc, stats.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != registry.JobComplete {
		t.Fatalf("job state %s (err=%q, dead letters=%d): loss burst did not recover",
			rec.State, rec.Err, len(rec.DeadLetters))
	}
}

// TestOneHeartbeatScannerPerService: liveness belongs to the fabric, not
// to a job. However many jobs come and go, the timers they leave pending
// are no more than one job leaves. (A scanner per job left one timer
// behind for every job, however short.)
func TestOneHeartbeatScannerPerService(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	h := newWorld(t, []siteSpec{{name: "mira", workers: 2}}).start(t, node{clk: clk})
	svc := h.svc
	if err := h.sites["mira"].Write("/d/f.txt", []byte("materials metadata sample")); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	run := func() {
		t.Helper()
		stats, err := svc.RunJob(ctx, []journal.RepoSpec{{Site: "mira", Roots: []string{"/d"},
			Grouper: "single"}})
		if err != nil || stats.FamiliesDone != 1 {
			t.Fatalf("job = %+v, %v", stats, err)
		}
	}
	// The endpoint's heartbeat loop arms its timer at start; wait for it,
	// so that the count after one job does not miss it.
	for deadline := time.Now().Add(10 * time.Second); clk.PendingTimers() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the endpoint never armed its heartbeat timer")
		}
	}
	run()
	timers := clk.PendingTimers()
	for i := 0; i < 100; i++ {
		run()
	}
	if now := clk.PendingTimers(); now > timers {
		t.Fatalf("%d timers pending after 100 more jobs, %d after the first", now, timers)
	}
}

// TestPumpWakeupAccounting checks the event-driven pump's headline
// property on a plain local job: it wakes for work, and (with no shared
// prefetch queue traffic) essentially never for nothing.
func TestPumpWakeupAccounting(t *testing.T) {
	h := newHarness(t, []siteSpec{{name: "theta", workers: 4}}, scheduler.LocalPolicy{})
	seedScience(t, h.sites["theta"], "/mdf")

	stats, err := h.svc.RunJob(context.Background(), []journal.RepoSpec{{
		Site:    "theta",
		Roots:   []string{"/mdf"},
		Grouper: "single",
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

// TestRunningRecordCountsGroupsAsTheirFamiliesArrive: a crawl's Stats
// reach the pump when the crawl ends, its families before that. While it
// runs, the record counts the groups of the families the pump has taken,
// so a step done never shows beside no group crawled; once every crawl has
// reported, the count is their GroupsFormed.
func TestRunningRecordCountsGroupsAsTheirFamiliesArrive(t *testing.T) {
	m := newMachine(t, nil)
	m.p.crawlsPending = 1
	fam := family.Family{ID: "x:/d#0", Store: "x", BasePath: "/d", Files: []string{"/d/a.txt", "/d/b.txt"},
		Groups: []family.Group{{ID: "a", Files: []string{"/d/a.txt"}, Extractor: "keyword"},
			{ID: "b", Files: []string{"/d/b.txt"}, Extractor: "keyword"}}}
	m.p.takeFamilies([]family.Family{fam})
	m.p.publish("", "")
	if got := m.p.job.Record().GroupsCrawled; got != 2 {
		t.Fatalf("groups crawled while the crawl runs = %d, want the 2 its family brought", got)
	}
	m.p.Crawl.Add(crawler.Stats{GroupsFormed: 3})
	m.p.crawlsPending--
	m.p.publish("", "")
	if got := m.p.job.Record().GroupsCrawled; got != 3 {
		t.Fatalf("groups crawled after the crawl reported = %d, want its GroupsFormed, 3", got)
	}
}

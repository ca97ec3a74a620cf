package tenant

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"xtract/internal/clock"
)

func TestNormalize(t *testing.T) {
	for in, want := range map[string]string{
		"":         Default,
		"  ":       Default,
		"Alice":    "alice",
		" Bob@X ":  "bob@x",
		"default":  Default,
		"TENANT-1": "tenant-1",
	} {
		if got := Normalize(in); got != want {
			t.Errorf("Normalize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestNilControllerIsOpen(t *testing.T) {
	var c *Controller
	if err := c.AdmitJob("a"); err != nil {
		t.Fatalf("nil AdmitJob: %v", err)
	}
	if waited, err := c.AcquireTask(context.Background(), "a"); waited || err != nil {
		t.Fatalf("nil AcquireTask: waited=%v err=%v", waited, err)
	}
	c.ReleaseTasks("a", 1)
	c.JobStarted("a")
	c.JobEnded("a")
	c.JobOutcome("a", "COMPLETE")
	c.Charge("a", Usage{StepsProcessed: 1, BytesStaged: 10})
	if _, ok := c.UsageFor("a"); ok {
		t.Fatal("nil UsageFor should report not found")
	}
	if snaps := c.Snapshots(); snaps != nil {
		t.Fatalf("nil Snapshots = %v", snaps)
	}
}

func TestAdmitJobRateLimit(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	c := NewController(Config{
		Clock:    clk,
		Defaults: Limits{SubmitRate: 1, SubmitBurst: 2},
	})
	// Bucket starts full: two submits pass, third is throttled.
	if err := c.AdmitJob("a"); err != nil {
		t.Fatalf("submit 1: %v", err)
	}
	if err := c.AdmitJob("a"); err != nil {
		t.Fatalf("submit 2: %v", err)
	}
	err := c.AdmitJob("a")
	var qe *QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("submit 3: want QuotaError, got %v", err)
	}
	if qe.Reason != "rate" || qe.Tenant != "a" {
		t.Fatalf("QuotaError = %+v", qe)
	}
	if qe.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v, want > 0", qe.RetryAfter)
	}
	// Tenants are isolated: b's bucket is untouched.
	if err := c.AdmitJob("b"); err != nil {
		t.Fatalf("tenant b: %v", err)
	}
	// Refill after a second restores one token.
	clk.Advance(time.Second)
	if err := c.AdmitJob("a"); err != nil {
		t.Fatalf("post-refill: %v", err)
	}
	u, ok := c.UsageFor("a")
	if !ok {
		t.Fatal("UsageFor(a) not found")
	}
	if u.Throttled != 1 {
		t.Fatalf("Throttled = %d, want 1", u.Throttled)
	}
}

func TestAdmitJobConcurrencyQuota(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	c := NewController(Config{
		Clock:    clk,
		Defaults: Limits{MaxActiveJobs: 2},
	})
	if err := c.AdmitJob("a"); err != nil {
		t.Fatalf("admit 1: %v", err)
	}
	if err := c.AdmitJob("a"); err != nil {
		t.Fatalf("admit 2: %v", err)
	}
	err := c.AdmitJob("a")
	var qe *QuotaError
	if !errors.As(err, &qe) || qe.Reason != "jobs" {
		t.Fatalf("admit 3: want jobs QuotaError, got %v", err)
	}
	// An admitted job holds its slot: nothing else takes or hands over a
	// slot for it. It is counted started once it runs (CountStart).
	if u, _ := c.UsageFor("a"); u.ActiveJobs != 2 || u.JobsStarted != 0 {
		t.Fatalf("usage after two admissions = %+v", u)
	}
	// A job ending frees a slot.
	c.JobEnded("a")
	if err := c.AdmitJob("a"); err != nil {
		t.Fatalf("after end: %v", err)
	}
}

// A recovered job takes a slot of its own: it cannot take the slot of a
// job admitted beside it, so the quota still holds. (Admission used to
// leave a reservation that the next job of the tenant to start took,
// whichever job that was: the third admission below passed.)
func TestRecoveredJobTakesItsOwnSlot(t *testing.T) {
	c := NewController(Config{Clock: clock.NewFake(time.Unix(1000, 0)), Defaults: Limits{MaxActiveJobs: 2}})
	if err := c.AdmitJob("a"); err != nil {
		t.Fatalf("admit: %v", err)
	}
	c.JobStarted("a")
	var qe *QuotaError
	if err := c.AdmitJob("a"); !errors.As(err, &qe) || qe.Reason != "jobs" {
		t.Fatalf("admission beside an admitted and a recovered job = %v; want a jobs QuotaError", err)
	}
}

func TestJobStartedWithoutAdmission(t *testing.T) {
	c := NewController(Config{Clock: clock.NewFake(time.Unix(0, 0))})
	// Recovered jobs were admitted in an earlier life: they are not
	// checked again, but they count.
	c.JobStarted("a")
	u, _ := c.UsageFor("a")
	if u.ActiveJobs != 1 || u.JobsStarted != 1 {
		t.Fatalf("usage = %+v", u)
	}
	c.JobEnded("a")
	u, _ = c.UsageFor("a")
	if u.ActiveJobs != 0 {
		t.Fatalf("ActiveJobs = %d after end", u.ActiveJobs)
	}
}

func TestAcquireTaskGlobalBudget(t *testing.T) {
	c := NewController(Config{Clock: clock.NewFake(time.Unix(0, 0)), TaskSlots: 2})
	ctx := context.Background()
	if waited, err := c.AcquireTask(ctx, "a"); waited || err != nil {
		t.Fatalf("acquire 1: waited=%v err=%v", waited, err)
	}
	if waited, err := c.AcquireTask(ctx, "a"); waited || err != nil {
		t.Fatalf("acquire 2: waited=%v err=%v", waited, err)
	}
	// Third acquire blocks until a release.
	done := make(chan struct{})
	go func() {
		defer close(done)
		if waited, err := c.AcquireTask(ctx, "a"); !waited || err != nil {
			t.Errorf("acquire 3: waited=%v err=%v", waited, err)
		}
	}()
	select {
	case <-done:
		t.Fatal("acquire 3 should have blocked")
	case <-time.After(20 * time.Millisecond):
	}
	c.ReleaseTasks("a", 1)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("acquire 3 never granted after release")
	}
}

func TestAcquireTaskPerTenantCap(t *testing.T) {
	c := NewController(Config{
		Clock:    clock.NewFake(time.Unix(0, 0)),
		Defaults: Limits{MaxInFlightTasks: 1},
	})
	ctx := context.Background()
	if waited, err := c.AcquireTask(ctx, "a"); waited || err != nil {
		t.Fatalf("acquire 1: waited=%v err=%v", waited, err)
	}
	// a is at its cap; b is not blocked by it.
	if waited, err := c.AcquireTask(ctx, "b"); waited || err != nil {
		t.Fatalf("tenant b: waited=%v err=%v", waited, err)
	}
	cctx, cancel := context.WithCancel(ctx)
	errCh := make(chan error, 1)
	go func() {
		_, err := c.AcquireTask(cctx, "a")
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled acquire: %v", err)
	}
	// The cancelled waiter left no leaked state: releasing a's slot
	// lets a fresh acquire through immediately.
	c.ReleaseTasks("a", 1)
	if waited, err := c.AcquireTask(ctx, "a"); waited || err != nil {
		t.Fatalf("post-cancel acquire: waited=%v err=%v", waited, err)
	}
}

// TestFairShareInterleave pins the stride schedule: with equal weights
// and one slot, two saturating tenants alternate grants instead of one
// queue-jumping the other.
func TestFairShareInterleave(t *testing.T) {
	c := NewController(Config{Clock: clock.NewFake(time.Unix(0, 0)), TaskSlots: 1})
	ctx := context.Background()

	// Seed: a holds the only slot; both tenants queue one waiter each
	// (a first), then each grant is followed by re-queueing that tenant
	// so both stay saturated.
	if _, err := c.AcquireTask(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	type grant struct {
		tenant string
		ch     chan struct{}
	}
	grants := make(chan grant, 16)
	queue := func(id string) {
		go func() {
			if _, err := c.AcquireTask(ctx, id); err != nil {
				return
			}
			grants <- grant{tenant: id}
		}()
	}
	queue("a")
	queue("b")
	time.Sleep(20 * time.Millisecond) // let both waiters enqueue
	var order []string
	c.ReleaseTasks("a", 1)
	for i := 0; i < 6; i++ {
		select {
		case g := <-grants:
			order = append(order, g.tenant)
			queue(g.tenant) // keep the tenant saturated
			time.Sleep(10 * time.Millisecond)
			c.ReleaseTasks(g.tenant, 1)
		case <-time.After(2 * time.Second):
			t.Fatalf("stalled after %v", order)
		}
	}
	// Strict alternation after the seed: no tenant gets two consecutive
	// grants while the other is waiting.
	for i := 1; i < len(order); i++ {
		if order[i] == order[i-1] {
			t.Fatalf("consecutive grants to %s: %v", order[i], order)
		}
	}
}

// TestFairShareWeights pins the 2:1 weighted split over a burst of
// grants.
func TestFairShareWeights(t *testing.T) {
	c := NewController(Config{
		Clock:     clock.NewFake(time.Unix(0, 0)),
		TaskSlots: 1,
		Overrides: map[string]Limits{
			"heavy": {Weight: 2},
			"light": {Weight: 1},
		},
	})
	ctx := context.Background()
	if _, err := c.AcquireTask(ctx, "seed"); err != nil {
		t.Fatal(err)
	}
	grants := make(chan string, 32)
	queue := func(id string) {
		go func() {
			if _, err := c.AcquireTask(ctx, id); err != nil {
				return
			}
			grants <- id
		}()
	}
	queue("heavy")
	queue("light")
	time.Sleep(20 * time.Millisecond)
	counts := map[string]int{}
	c.ReleaseTasks("seed", 1)
	for i := 0; i < 9; i++ {
		select {
		case id := <-grants:
			counts[id]++
			queue(id)
			time.Sleep(10 * time.Millisecond)
			c.ReleaseTasks(id, 1)
		case <-time.After(2 * time.Second):
			t.Fatalf("stalled at %v", counts)
		}
	}
	if counts["heavy"] < counts["light"] {
		t.Fatalf("weighted split inverted: %v", counts)
	}
	if counts["heavy"] < 5 || counts["light"] < 2 {
		t.Fatalf("split too lopsided or too flat: %v", counts)
	}
}

// TestFairShareConvergence floods tenant A with 10× tenant B's work on
// a tiny slot budget and asserts B finishes while A is still running —
// the starvation-freedom property the tentpole demands. Run with -race.
func TestFairShareConvergence(t *testing.T) {
	c := NewController(Config{Clock: clock.NewFake(time.Unix(0, 0)), TaskSlots: 2})
	ctx := context.Background()
	const bTasks = 20
	aTasks := 10 * bTasks

	var aDone sync.WaitGroup
	var aFinished, bFinishedFirst bool
	var mu sync.Mutex
	bDone := make(chan struct{})

	worker := func(id string, n int, done func()) {
		defer done()
		for i := 0; i < n; i++ {
			if _, err := c.AcquireTask(ctx, id); err != nil {
				t.Errorf("%s acquire: %v", id, err)
				return
			}
			time.Sleep(time.Millisecond) // simulated task execution
			c.ReleaseTasks(id, 1)
		}
	}
	// 4 concurrent submitters for A (the flood), 1 for B.
	aDone.Add(4)
	for i := 0; i < 4; i++ {
		go worker("a", aTasks/4, aDone.Done)
	}
	go worker("b", bTasks, func() { close(bDone) })
	go func() {
		aDone.Wait()
		mu.Lock()
		aFinished = true
		mu.Unlock()
	}()

	select {
	case <-bDone:
		mu.Lock()
		bFinishedFirst = !aFinished
		mu.Unlock()
	case <-time.After(30 * time.Second):
		t.Fatal("tenant B starved: never completed")
	}
	if !bFinishedFirst {
		t.Fatal("tenant B should complete while the flooding tenant A is still running")
	}
	aDone.Wait() // A must still drain fully — throttled, not starved
	ua, _ := c.UsageFor("a")
	ub, _ := c.UsageFor("b")
	if ua.TasksDispatched != int64(aTasks) || ub.TasksDispatched != int64(bTasks) {
		t.Fatalf("accounting: a=%d (want %d) b=%d (want %d)",
			ua.TasksDispatched, aTasks, ub.TasksDispatched, bTasks)
	}
	if ub.Throttled == 0 || ua.Throttled == 0 {
		t.Fatalf("expected both tenants throttled under contention: a=%d b=%d",
			ua.Throttled, ub.Throttled)
	}
}

// TestWaitBehindOwnTasksIsNotThrottled: a tenant over the slot budget
// with no other tenant in the system waits but is not throttled; a wait
// while another tenant holds a slot, or is queued for one, is.
func TestWaitBehindOwnTasksIsNotThrottled(t *testing.T) {
	c := NewController(Config{Clock: clock.NewFake(time.Unix(0, 0)), TaskSlots: 2})
	ctx := context.Background()
	queued := 0
	block := func(id string) <-chan bool {
		waited := make(chan bool, 1)
		go func() {
			w, err := c.AcquireTask(ctx, id)
			if err != nil {
				t.Error(err)
			}
			waited <- w
		}()
		queued++
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			c.mu.Lock()
			n := len(c.waiters)
			c.mu.Unlock()
			if n == queued {
				return waited
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s never queued", id)
			}
		}
	}
	throttled := func(id string, want int64) {
		t.Helper()
		if u, _ := c.UsageFor(id); u.Throttled != want {
			t.Fatalf("%s throttled %d times, want %d", id, u.Throttled, want)
		}
	}
	for i := 0; i < 2; i++ {
		if waited, err := c.AcquireTask(ctx, "a"); waited || err != nil {
			t.Fatalf("acquire %d: waited=%v err=%v", i, waited, err)
		}
	}
	a3 := block("a") // behind a's own two tasks
	throttled("a", 0)
	b1 := block("b") // a holds both slots
	throttled("b", 1)
	a4 := block("a") // b is queued
	throttled("a", 1)

	c.ReleaseTasks("a", 2)
	c.ReleaseTasks("a", 1)
	c.ReleaseTasks("b", 1)
	for _, waited := range []<-chan bool{a3, b1, a4} {
		if !<-waited {
			t.Fatal("a blocked acquire reported no wait")
		}
	}
}

func TestUsageAccounting(t *testing.T) {
	c := NewController(Config{Clock: clock.NewFake(time.Unix(0, 0))})
	c.JobStarted("a")
	// Two posts of a pump: a fresh step and a cache hit, then a
	// dead-lettered step and a staged family. Charge bills only its five
	// fields: the job counts are the controller's own.
	c.Charge("a", Usage{StepsProcessed: 2, CacheHits: 1, ExtractorSeconds: 2})
	c.Charge("a", Usage{StepsFailed: 1, BytesStaged: 4096, JobsCompleted: 7, Throttled: 7})
	c.JobOutcome("a", "COMPLETE")
	c.JobEnded("a")

	u, ok := c.UsageFor("a")
	if !ok {
		t.Fatal("UsageFor(a) not found")
	}
	if u.StepsProcessed != 2 || u.CacheHits != 1 || u.StepsFailed != 1 {
		t.Fatalf("steps = %+v", u)
	}
	if u.ExtractorSeconds != 2 {
		t.Fatalf("ExtractorSeconds = %v, want 2", u.ExtractorSeconds)
	}
	if u.BytesStaged != 4096 {
		t.Fatalf("BytesStaged = %d", u.BytesStaged)
	}
	if u.JobsCompleted != 1 || u.ActiveJobs != 0 || u.Throttled != 0 {
		t.Fatalf("jobs = %+v", u)
	}

	snaps := c.Snapshots()
	if len(snaps) != 1 || snaps[0].Tenant != "a" {
		t.Fatalf("Snapshots = %+v", snaps)
	}
}

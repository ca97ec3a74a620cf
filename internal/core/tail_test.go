package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"xtract/internal/clock"
	"xtract/internal/faas"
	"xtract/internal/family"
	"xtract/internal/journal"
	"xtract/internal/registry"
	"xtract/internal/scheduler"
	"xtract/internal/store"
	"xtract/internal/tenant"

	xt "xtract/internal/extractors"
)

// --- estimator -------------------------------------------------------------

func TestEstimatorColdStart(t *testing.T) {
	pol := HedgePolicy{Quantile: 0.9, Multiplier: 2, MinSamples: 5, MinDelay: time.Millisecond}.withDefaults()
	e := newLatencyEstimator(pol)
	fallback := 30 * time.Second

	// No observations at all: the deadline is the configured heartbeat
	// timeout, never zero.
	if d := e.Deadline("x", fallback); d != fallback {
		t.Fatalf("cold deadline = %v, want fallback %v", d, fallback)
	}

	// Below MinSamples the estimate is still untrusted.
	for i := 0; i < pol.MinSamples-1; i++ {
		e.Observe("x", 10*time.Millisecond)
	}
	if d := e.Deadline("x", fallback); d != fallback {
		t.Fatalf("deadline with %d samples = %v, want fallback %v",
			pol.MinSamples-1, d, fallback)
	}

	// The MinSamples-th observation warms the estimate: quantile (10ms) ×
	// multiplier (2).
	e.Observe("x", 10*time.Millisecond)
	if d := e.Deadline("x", fallback); d != 20*time.Millisecond {
		t.Fatalf("warm deadline = %v, want 20ms", d)
	}

	// Other extractors stay cold independently.
	if d := e.Deadline("y", fallback); d != fallback {
		t.Fatalf("unrelated extractor deadline = %v, want fallback", d)
	}

	// A nil estimator (hedging disabled) always falls back.
	var nilEst *latencyEstimator
	if d := nilEst.Deadline("x", fallback); d != fallback {
		t.Fatalf("nil estimator deadline = %v, want fallback", d)
	}
	nilEst.Observe("x", time.Second) // must not panic
}

func TestEstimatorDeadlineBounds(t *testing.T) {
	pol := HedgePolicy{Quantile: 0.9, Multiplier: 3, MinSamples: 4, MinDelay: 5 * time.Millisecond}.withDefaults()

	// Floor: a very fast extractor's deadline clamps up to MinDelay so
	// estimate jitter cannot hedge everything.
	e := newLatencyEstimator(pol)
	for i := 0; i < pol.MinSamples; i++ {
		e.Observe("fast", 10*time.Microsecond)
	}
	if d := e.Deadline("fast", time.Minute); d != pol.MinDelay {
		t.Fatalf("fast deadline = %v, want MinDelay %v", d, pol.MinDelay)
	}

	// Cap: the adaptive deadline tightens the fixed timeout, never
	// loosens it.
	for i := 0; i < pol.MinSamples; i++ {
		e.Observe("slow", time.Hour)
	}
	fallback := 30 * time.Second
	if d := e.Deadline("slow", fallback); d != fallback {
		t.Fatalf("slow deadline = %v, want cap at fallback %v", d, fallback)
	}

	if n := e.Samples("fast"); n != pol.MinSamples {
		t.Fatalf("samples = %d, want %d", n, pol.MinSamples)
	}
}

// --- circuit breaker -------------------------------------------------------

func TestBreakerStateMachine(t *testing.T) {
	clk := clock.NewFake(time.Unix(0, 0))
	pol := BreakerPolicy{Window: 4, TripRatio: 0.5, Cooldown: time.Second, HalfOpenProbes: 2}.withDefaults()
	b := newBreaker(pol, clk)

	if !b.Allow() || b.State() != breakerClosed {
		t.Fatal("new breaker must be closed and allowing")
	}

	// Half the window fails: trips open at the ratio.
	b.Record(true)
	b.Record(false)
	b.Record(true)
	b.Record(false)
	if b.State() != breakerOpen {
		t.Fatalf("state after trip = %d, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker admitted work inside cooldown")
	}

	// Cooldown elapses: half-open, admitting exactly HalfOpenProbes.
	clk.Advance(pol.Cooldown)
	if !b.Allow() {
		t.Fatal("breaker did not half-open after cooldown")
	}
	if b.State() != breakerHalfOpen {
		t.Fatalf("state = %d, want half-open", b.State())
	}
	if !b.Allow() {
		t.Fatal("second probe refused")
	}
	if b.Allow() {
		t.Fatal("probe budget exceeded")
	}

	// A half-open failure reopens immediately.
	b.Record(false)
	if b.State() != breakerOpen || b.Allow() {
		t.Fatal("half-open failure must reopen the breaker")
	}

	// Recover for real: cooldown, then enough probe successes close it.
	clk.Advance(pol.Cooldown)
	if !b.Allow() {
		t.Fatal("no probe after second cooldown")
	}
	b.Record(true)
	b.Record(true)
	if b.State() != breakerClosed || !b.Allow() {
		t.Fatalf("state after probe successes = %d, want closed", b.State())
	}

	// Below-ratio windows decay instead of tripping.
	b.Record(false)
	b.Record(true)
	b.Record(true)
	b.Record(true)
	if b.State() != breakerClosed {
		t.Fatal("healthy window tripped the breaker")
	}

	// Nil breaker (breakers disabled) is inert.
	var nb *breaker
	if !nb.Allow() || nb.State() != breakerClosed {
		t.Fatal("nil breaker must allow")
	}
	nb.Record(false) // must not panic
}

// --- overload shedding -----------------------------------------------------

func TestShedCheck(t *testing.T) {
	ctrl := tenant.NewController(tenant.Config{TaskSlots: 4})
	h := newHarnessCfg(t, []siteSpec{{name: "alpha", workers: 1}}, scheduler.LocalPolicy{}, func(cfg *Config) {
		cfg.Tenants = ctrl
	})

	// Disabled policy never sheds.
	h.svc.cfg.Shed = ShedPolicy{}
	if _, shed := h.svc.ShedCheck(); shed {
		t.Fatal("disabled shed policy refused a submission")
	}

	// Slot watermark: no pressure yet.
	h.svc.cfg.Shed = ShedPolicy{SlotHighWatermark: 0.5, RetryAfter: 3 * time.Second}
	if _, shed := h.svc.ShedCheck(); shed {
		t.Fatal("shed with zero slot pressure")
	}

	// Two of four slots in flight reaches the 0.5 watermark.
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := ctrl.AcquireTask(ctx, "a"); err != nil {
			t.Fatal(err)
		}
	}
	retry, shed := h.svc.ShedCheck()
	if !shed {
		t.Fatal("watermark pressure did not shed")
	}
	if retry != 3*time.Second {
		t.Fatalf("retry = %v, want configured 3s", retry)
	}

	// Unset RetryAfter defaults to 1s.
	h.svc.cfg.Shed = ShedPolicy{SlotHighWatermark: 0.5}
	if retry, shed := h.svc.ShedCheck(); !shed || retry != time.Second {
		t.Fatalf("retry = %v shed=%v, want default 1s", retry, shed)
	}

	// Queue-depth watermark: park tasks behind a blocked worker.
	block := make(chan struct{})
	defer close(block)
	fid, err := h.fsvc.RegisterFunction("tail-block", func(context.Context, []byte) ([]byte, error) {
		<-block
		return nil, nil
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := h.fsvc.SubmitBatch([]faas.TaskRequest{{FunctionID: fid, EndpointID: "ep-alpha"}}); err != nil {
			t.Fatal(err)
		}
	}
	h.svc.cfg.Shed = ShedPolicy{MaxQueueDepth: 2}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, shed := h.svc.ShedCheck(); shed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("queue-depth watermark never shed")
		}
		time.Sleep(time.Millisecond)
	}
}

// --- hedged execution ------------------------------------------------------

// tailBlockExtractor parks exactly one execution on a channel — the
// straggler hedging must route around — and answers instantly otherwise.
// It keeps the names every execution's input was keyed by.
type tailBlockExtractor struct {
	mu      sync.Mutex
	claimed bool
	release chan struct{}
	named   []string
}

func (b *tailBlockExtractor) Name() string                     { return "tailblock" }
func (b *tailBlockExtractor) Container() string                { return "tailblock-container" }
func (b *tailBlockExtractor) Applies(info store.FileInfo) bool { return true }

func (b *tailBlockExtractor) Extract(g *family.Group, files map[string][]byte) (map[string]interface{}, error) {
	b.mu.Lock()
	first := !b.claimed
	if first {
		b.claimed = true
	}
	for name := range files {
		b.named = append(b.named, name)
	}
	b.mu.Unlock()
	if first {
		<-b.release
	}
	return map[string]interface{}{"files": len(files)}, nil
}

// The duplicate runs on the other compute site and reads the original
// path from the family's home through FetchFrom, whether the straggler
// reads the files in place (home alpha) or under its site's stage prefix
// (home gamma, storage-only): either way every execution's input is keyed
// by the original path.
func TestHedgeWinsOverStraggler(t *testing.T) {
	for _, home := range []string{"alpha", "gamma"} {
		t.Run("home="+home, func(t *testing.T) { hedgeWinsOverStraggler(t, home) })
	}
}

func hedgeWinsOverStraggler(t *testing.T, home string) {
	ext := &tailBlockExtractor{release: make(chan struct{})}
	defer close(ext.release)
	ctrl := tenant.NewController(tenant.Config{})

	h := newHarnessCfg(t, []siteSpec{
		{name: "alpha", workers: 4},
		{name: "beta", workers: 4},
		{name: "gamma"},
	}, scheduler.LocalPolicy{}, func(cfg *Config) {
		cfg.Library = xt.NewLibrary(ext)
		cfg.Tenants = ctrl
		cfg.XtractBatchSize = 1
		cfg.Hedge = HedgePolicy{
			Enabled:    true,
			Quantile:   0.9,
			Multiplier: 2,
			MinSamples: 5,
		}
	})

	const nfiles = 6
	for i := 0; i < nfiles; i++ {
		if err := h.sites[home].Write(fmt.Sprintf("/d/f%02d.dat", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}

	// Prime the shared estimator past MinSamples so the blocked task's
	// deadline is the adaptive estimate (~5ms floor), not the 30s
	// heartbeat fallback.
	for i := 0; i < 8; i++ {
		h.svc.estimator.Observe(ext.Name(), 2*time.Millisecond)
	}

	stats, err := runSpec(h.svc, context.Background(), journal.JobSpec{Tenant: "acme", Repos: []journal.RepoSpec{{
		Site:    home,
		Roots:   []string{"/d"},
		Grouper: "single",
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FamiliesDone != nfiles || stats.FamiliesFailed != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if staged := stats.BytesStaged > 0; staged != (home == "gamma") {
		t.Fatalf("bytes staged = %d from home %s", stats.BytesStaged, home)
	}
	ext.mu.Lock()
	for _, name := range ext.named {
		if !strings.HasPrefix(name, "/d/f") {
			t.Errorf("an execution's input was keyed by %q, not by the original path", name)
		}
	}
	ext.mu.Unlock()
	if stats.StepsHedged < 1 {
		t.Fatalf("no hedge dispatched for the blocked task: %+v", stats)
	}
	if stats.HedgeWins < 1 {
		t.Fatalf("hedge duplicate did not win: %+v", stats)
	}
	// Exactly-once despite the duplicate: each step counts once in stats
	// and once on the tenant's bill.
	if stats.StepsProcessed != nfiles {
		t.Fatalf("steps processed = %d, want %d (duplicates must be fenced)",
			stats.StepsProcessed, nfiles)
	}
	usage, ok := ctrl.UsageFor("acme")
	if !ok || usage.StepsProcessed != stats.StepsProcessed {
		t.Fatalf("tenant billed %d steps, job processed %d", usage.StepsProcessed, stats.StepsProcessed)
	}
	// The cancelled loser's record went with the winner's.
	assertNoRecords(t, h)

	// Each family shipped exactly one validation record.
	deadline := time.Now().Add(10 * time.Second)
	for {
		h.valsvc.Drain()
		infos, err := h.dest.List("/metadata")
		if err == nil && int64(len(infos)) == stats.FamiliesDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("validated docs = %d, want %d (%v)", len(infos), stats.FamiliesDone, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// --- straggler budget ------------------------------------------------------

// tailPoisonExtractor fails every execution over a file whose path
// mentions "poison" and succeeds elsewhere.
type tailPoisonExtractor struct{}

func (tailPoisonExtractor) Name() string                     { return "tailpoison" }
func (tailPoisonExtractor) Container() string                { return "tailpoison-container" }
func (tailPoisonExtractor) Applies(info store.FileInfo) bool { return true }

func (tailPoisonExtractor) Extract(g *family.Group, files map[string][]byte) (map[string]interface{}, error) {
	for path := range files {
		if strings.Contains(path, "poison") {
			return nil, errors.New("poisoned input")
		}
	}
	return map[string]interface{}{"files": len(files)}, nil
}

func TestStragglerBudgetDegraded(t *testing.T) {
	ctrl := tenant.NewController(tenant.Config{})
	lib := xt.NewLibrary(tailPoisonExtractor{})
	h := newHarnessCfg(t, []siteSpec{{name: "alpha", workers: 2}}, scheduler.LocalPolicy{}, func(cfg *Config) {
		cfg.Library = lib
		cfg.Tenants = ctrl
		cfg.XtractBatchSize = 1
		cfg.StragglerBudget = 1
		cfg.Retry = RetryPolicy{
			MaxAttempts: 2,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  2 * time.Millisecond,
			JobBudget:   16,
		}
	})

	for i := 0; i < 3; i++ {
		if err := h.sites["alpha"].Write(fmt.Sprintf("/d/good%02d.dat", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.sites["alpha"].Write("/d/poison.dat", []byte{0xff}); err != nil {
		t.Fatal(err)
	}

	stats, err := runSpec(h.svc, context.Background(), journal.JobSpec{Tenant: "acme", Repos: []journal.RepoSpec{{
		Site:    "alpha",
		Roots:   []string{"/d"},
		Grouper: "single",
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Degraded {
		t.Fatalf("job not degraded: %+v", stats)
	}
	if stats.FamiliesDegraded != 1 || stats.StepsDeadLettered != 1 {
		t.Fatalf("degraded=%d deadlettered=%d, want 1/1", stats.FamiliesDegraded, stats.StepsDeadLettered)
	}
	// The degraded family still converged: it counts done, not failed.
	if stats.FamiliesDone != 4 || stats.FamiliesFailed != 0 {
		t.Fatalf("done=%d failed=%d, want 4/0", stats.FamiliesDone, stats.FamiliesFailed)
	}

	rec, err := record(h.svc, stats.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != registry.JobDegraded {
		t.Fatalf("job state = %s, want DEGRADED", rec.State)
	}
	if len(rec.DeadLetters) == 0 {
		t.Fatal("degraded job must keep its dead-letter audit trail")
	}
	usage, ok := ctrl.UsageFor("acme")
	if !ok || usage.JobsDegraded != 1 {
		t.Fatalf("tenant JobsDegraded = %d, want 1", usage.JobsDegraded)
	}

	// Partial results shipped: every converged family, including the
	// degraded one, has a validation record at the destination.
	deadline := time.Now().Add(10 * time.Second)
	for {
		h.valsvc.Drain()
		infos, err := h.dest.List("/metadata")
		if err == nil && int64(len(infos)) == stats.FamiliesDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("validated docs = %d, want %d (%v)", len(infos), stats.FamiliesDone, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// A budget of zero (the default) keeps dead-lettered stragglers fatal.
func TestStragglerBudgetZeroStaysFailed(t *testing.T) {
	lib := xt.NewLibrary(tailPoisonExtractor{})
	h := newHarnessCfg(t, []siteSpec{{name: "alpha", workers: 2}}, scheduler.LocalPolicy{}, func(cfg *Config) {
		cfg.Library = lib
		cfg.XtractBatchSize = 1
		cfg.Retry = RetryPolicy{
			MaxAttempts: 2,
			BaseBackoff: time.Millisecond,
			MaxBackoff:  2 * time.Millisecond,
			JobBudget:   16,
		}
	})
	if err := h.sites["alpha"].Write("/d/poison.dat", []byte{0xff}); err != nil {
		t.Fatal(err)
	}

	stats, err := h.svc.RunJob(context.Background(), []journal.RepoSpec{{
		Site:    "alpha",
		Roots:   []string{"/d"},
		Grouper: "single",
	}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Degraded || stats.FamiliesDegraded != 0 {
		t.Fatalf("budgetless job reported degraded: %+v", stats)
	}
	rec, err := record(h.svc, stats.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != registry.JobFailed {
		t.Fatalf("job state = %s, want FAILED", rec.State)
	}
}

// --- duplicate family delivery (overlapping roots) -------------------------

// Overlapping roots crawl a directory twice and hand its families over
// twice under the same IDs: the second delivery must be dropped, whether
// it arrives in the same batch or a later one. Exercised white-box
// through the pump's intake over a family whose placement fails
// immediately, so a double process would show up as FamiliesFailed == 2.
func TestDuplicateFamilyDeliveryIgnored(t *testing.T) {
	h := newHarness(t, []siteSpec{{name: "alpha", workers: 1}}, scheduler.LocalPolicy{})

	p := barePump(h, "test-dup")
	fam := family.Family{ID: "fam-dup", Store: "ghost"}
	for _, batch := range [][]family.Family{{fam, fam}, {fam}} {
		if n := p.offerFamilies(context.Background(), batch); n != len(batch) {
			t.Fatalf("hand-off took %d of %d families", n, len(batch))
		}
	}
	if !p.intakeFamilies() {
		t.Fatal("intake made no progress")
	}
	if p.FamiliesFailed != 1 {
		t.Fatalf("FamiliesFailed = %d, want 1: a duplicate delivery was processed", p.FamiliesFailed)
	}
	if len(p.handoff) != 0 {
		t.Fatalf("hand-off not drained: %d batches left", len(p.handoff))
	}
	if rec := p.job.Record(); len(rec.DeadLetters) != 1 {
		t.Fatalf("dead letters = %d, want exactly 1", len(rec.DeadLetters))
	}
}

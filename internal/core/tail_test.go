package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"xtract/internal/clock"
	"xtract/internal/crawler"
	"xtract/internal/faas"
	"xtract/internal/family"
	"xtract/internal/faultinject"
	"xtract/internal/obs"
	"xtract/internal/queue"
	"xtract/internal/registry"
	"xtract/internal/scheduler"
	"xtract/internal/store"
	"xtract/internal/tenant"
	"xtract/internal/transfer"
	"xtract/internal/validate"

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
	defer h.close()

	// Disabled policy never sheds.
	h.svc.cfg.Shed = ShedPolicy{}
	if _, shed := h.svc.ShedCheck(); shed {
		t.Fatal("disabled shed policy refused a submission")
	}

	// Slot watermark: no pressure yet.
	h.svc.cfg.Shed = ShedPolicy{Enabled: true, SlotHighWatermark: 0.5, RetryAfter: 3 * time.Second}
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
	h.svc.cfg.Shed = ShedPolicy{Enabled: true, SlotHighWatermark: 0.5}
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
		if _, err := h.fsvc.Submit(faas.TaskRequest{FunctionID: fid, EndpointID: "ep-alpha"}); err != nil {
			t.Fatal(err)
		}
	}
	h.svc.cfg.Shed = ShedPolicy{Enabled: true, MaxQueueDepth: 2}
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
	defer h.close()

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

	stats, err := runJobOpts(h.svc, context.Background(), []RepoSpec{{
		SiteName: home,
		Roots:    []string{"/d"},
		Grouper:  crawler.SingleFileGrouper(xt.NewLibrary(ext)),
	}}, JobOptions{Tenant: "acme"})
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
	defer h.close()

	for i := 0; i < 3; i++ {
		if err := h.sites["alpha"].Write(fmt.Sprintf("/d/good%02d.dat", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.sites["alpha"].Write("/d/poison.dat", []byte{0xff}); err != nil {
		t.Fatal(err)
	}

	stats, err := runJobOpts(h.svc, context.Background(), []RepoSpec{{
		SiteName: "alpha",
		Roots:    []string{"/d"},
		Grouper:  crawler.SingleFileGrouper(lib),
	}}, JobOptions{Tenant: "acme"})
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

	rec, err := h.svc.cfg.Registry.Job(stats.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != registry.JobDegraded {
		t.Fatalf("registry state = %s, want DEGRADED", rec.State)
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
	defer h.close()
	if err := h.sites["alpha"].Write("/d/poison.dat", []byte{0xff}); err != nil {
		t.Fatal(err)
	}

	stats, err := h.svc.RunJob(context.Background(), []RepoSpec{{
		SiteName: "alpha",
		Roots:    []string{"/d"},
		Grouper:  crawler.SingleFileGrouper(lib),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Degraded || stats.FamiliesDegraded != 0 {
		t.Fatalf("budgetless job reported degraded: %+v", stats)
	}
	rec, err := h.svc.cfg.Registry.Job(stats.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != registry.JobFailed {
		t.Fatalf("registry state = %s, want FAILED", rec.State)
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
	defer h.close()

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
	rec, err := h.svc.cfg.Registry.Job(p.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.DeadLetters) != 1 {
		t.Fatalf("dead letters = %d, want exactly 1", len(rec.DeadLetters))
	}
}

// --- chaos: slow endpoints + hedging + breakers ----------------------------

// tailChaosSeeds seeds run the full pipeline with injected straggler
// latency while hedging, breakers, and (on odd seeds) a straggler budget
// are active. Every seed must converge with exactly-once accounting.
const tailChaosSeeds = 12

func TestTailChaosSeeds(t *testing.T) {
	for seed := int64(1); seed <= tailChaosSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%02d", seed), func(t *testing.T) {
			t.Parallel()
			runTailChaosJob(t, seed)
		})
	}
}

// tailChaosPlan injects stragglers (the slow fault) prominently, plus a
// light mix of the failure kinds, so hedges race real completions and
// breakers see genuine error rates.
func tailChaosPlan(seed int64) faultinject.Config {
	rng := rand.New(rand.NewSource(seed))
	return faultinject.Config{
		Seed:          seed,
		Slow:          faultinject.Rule{Prob: 0.3 + rng.Float64()*0.4, Max: 20},
		SlowFor:       30 * time.Millisecond,
		DispatchError: faultinject.Rule{Prob: rng.Float64() * 0.2, Max: 6},
		HeartbeatDrop: faultinject.Rule{Prob: rng.Float64() * 0.3, Max: 6},
		TransferError: faultinject.Rule{Prob: rng.Float64() * 0.3, Max: 3},
		ExtractError:  faultinject.Rule{Prob: rng.Float64() * 0.3, Max: 5},
		QueueDrop:     faultinject.Rule{Prob: rng.Float64() * 0.3, Max: 8},
	}
}

func runTailChaosJob(t *testing.T, seed int64) {
	clk := clock.NewReal()
	ob := obs.New(clk)
	inj := faultinject.New(tailChaosPlan(seed))

	fsvc := faas.NewService(clk, faas.Costs{})
	fsvc.HeartbeatTimeout = 40 * time.Millisecond
	fsvc.Instrument(ob.Reg())
	fsvc.SetFaults(inj)

	fabric := transfer.NewFabric(clk)
	fabric.SetFaults(inj)

	families, prefetch, prefetchDone, results := NewQueues(clk)
	for _, q := range []*queue.Queue{families, prefetch, prefetchDone, results} {
		q.SetFaults(inj)
	}

	ctrl := tenant.NewController(tenant.Config{TaskSlots: 64})
	budget := 0
	if seed%2 == 1 {
		budget = 4
	}
	svc := New(Config{
		Clock: clk, FaaS: fsvc, Fabric: fabric,
		Registry: registry.New(clk, 0), Library: xt.DefaultLibrary(),
		PrefetchQueue: prefetch,
		PrefetchDone:  prefetchDone, ResultQueue: results,
		Policy:          scheduler.LocalPolicy{},
		XtractBatchSize: 2, FuncXBatchSize: 2,
		Checkpoint: true,
		Obs:        ob,
		Tenants:    ctrl,
		Retry: RetryPolicy{
			MaxAttempts: 3,
			BaseBackoff: 2 * time.Millisecond,
			MaxBackoff:  20 * time.Millisecond,
			JitterSeed:  seed,
			JobBudget:   64,
		},
		ExtractFaults: inj,
		Hedge: HedgePolicy{
			Enabled:    true,
			Quantile:   0.9,
			Multiplier: 2,
			MinSamples: 8,
			MinDelay:   2 * time.Millisecond,
		},
		Breakers: BreakerPolicy{
			Enabled:        true,
			Window:         8,
			TripRatio:      0.6,
			Cooldown:       20 * time.Millisecond,
			HalfOpenProbes: 2,
		},
		StragglerBudget: budget,
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Two compute sites: hedged duplicates need a second healthy site to
	// land on, fetching inputs from the straggling task's home.
	for _, name := range []string{"alpha", "beta"} {
		fs := store.NewMemFS(name, nil)
		fabric.AddEndpoint(name, fs)
		ep := faas.NewEndpoint("ep-"+name, 3, clk)
		fsvc.RegisterEndpoint(ep)
		if err := ep.Start(ctx); err != nil {
			t.Fatal(err)
		}
		svc.AddSite(&Site{
			Name: name, Store: fs, TransferID: name,
			StagePath: "/xtract-stage", Compute: ep,
		})
		seedScience(t, fs, "/data")
	}
	if err := svc.RegisterExtractors(); err != nil {
		t.Fatal(err)
	}

	pf := transfer.NewPrefetcher(fabric, prefetch, prefetchDone, clk)
	go pf.Run(ctx, 2)
	dest := store.NewMemFS("user-dest", nil)
	valsvc := validate.NewService(validate.Passthrough{}, results, dest)
	go valsvc.Run(ctx)

	type result struct {
		stats JobStats
		err   error
	}
	done := make(chan result, 1)
	go func() {
		stats, err := runJobOpts(svc, context.Background(), []RepoSpec{
			{SiteName: "alpha", Roots: []string{"/data"},
				Grouper: crawler.SingleFileGrouper(xt.DefaultLibrary())},
			{SiteName: "beta", Roots: []string{"/data"},
				Grouper: crawler.SingleFileGrouper(xt.DefaultLibrary())},
		}, JobOptions{Tenant: "chaos"})
		done <- result{stats, err}
	}()

	var res result
	select {
	case res = <-done:
	case <-time.After(60 * time.Second):
		t.Fatalf("job hung; reproduce with seed=%d (%s)", seed, inj)
	}
	if res.err != nil {
		t.Fatalf("seed=%d: RunJob error: %v (%s)", seed, res.err, inj)
	}
	stats := res.stats
	t.Logf("seed=%d stats=%+v", seed, stats)
	t.Logf("%s", inj)

	// Convergence: every emitted family reached a terminal outcome.
	if stats.FamiliesDone+stats.FamiliesFailed != stats.Crawl.FamiliesEmitted {
		t.Fatalf("seed=%d: done(%d)+failed(%d) != emitted(%d)",
			seed, stats.FamiliesDone, stats.FamiliesFailed, stats.Crawl.FamiliesEmitted)
	}

	// Exactly-once accounting under hedged duplicates: the tenant's bill
	// matches the job's step count — a double-billed duplicate or a
	// swallowed completion would break the equality — and every granted
	// task slot was returned.
	usage, ok := ctrl.UsageFor("chaos")
	if !ok {
		t.Fatalf("seed=%d: no usage for tenant", seed)
	}
	if usage.StepsProcessed != stats.StepsProcessed {
		t.Fatalf("seed=%d: tenant billed %d steps, job processed %d (hedge fence leak)",
			seed, usage.StepsProcessed, stats.StepsProcessed)
	}
	if usage.InFlightTasks != 0 {
		t.Fatalf("seed=%d: %d task slots leaked", seed, usage.InFlightTasks)
	}

	rec, err := svc.cfg.Registry.Job(stats.JobID)
	if err != nil {
		t.Fatal(err)
	}
	switch rec.State {
	case registry.JobComplete:
		if stats.FamiliesFailed != 0 || stats.StepsDeadLettered != 0 {
			t.Fatalf("seed=%d: COMPLETE with failures: %+v", seed, stats)
		}
	case registry.JobDegraded:
		if budget <= 0 {
			t.Fatalf("seed=%d: DEGRADED without a straggler budget", seed)
		}
		if stats.FamiliesDegraded == 0 || stats.StepsDeadLettered == 0 ||
			int(stats.StepsDeadLettered) > budget {
			t.Fatalf("seed=%d: DEGRADED accounting off: %+v", seed, stats)
		}
		if usage.JobsDegraded != 1 {
			t.Fatalf("seed=%d: tenant JobsDegraded = %d", seed, usage.JobsDegraded)
		}
	case registry.JobFailed:
		if len(rec.DeadLetters) == 0 {
			t.Fatalf("seed=%d: FAILED job has no dead-letter report", seed)
		}
	default:
		t.Fatalf("seed=%d: non-terminal job state %s", seed, rec.State)
	}
}

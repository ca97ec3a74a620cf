package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"xtract/internal/clock"
	"xtract/internal/crawler"
	"xtract/internal/extractors"
	"xtract/internal/faas"
	"xtract/internal/faultinject"
	"xtract/internal/obs"
	"xtract/internal/queue"
	"xtract/internal/registry"
	"xtract/internal/scheduler"
	"xtract/internal/store"
	"xtract/internal/transfer"
	"xtract/internal/validate"
)

// chaosSeeds is how many independent seeded schedules the suite runs.
// Every seed must converge: COMPLETE, or FAILED with a dead-letter
// report — never hung. Failures reproduce from the seed in the log.
const chaosSeeds = 24

func TestChaosSeededSchedules(t *testing.T) {
	for seed := int64(1); seed <= chaosSeeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%02d", seed), func(t *testing.T) {
			t.Parallel()
			runChaosJob(t, seed)
		})
	}
}

// chaosPlan derives a fault plan from the seed. Probabilities vary per
// seed (drawn from a PRNG seeded with it) so the suite covers quiet runs,
// single-fault runs, and pile-ups; budgets keep every plan finite.
func chaosPlan(seed int64) faultinject.Config {
	rng := rand.New(rand.NewSource(seed))
	return faultinject.Config{
		Seed:          seed,
		DispatchError: faultinject.Rule{Prob: rng.Float64() * 0.3, Max: 10},
		HeartbeatDrop: faultinject.Rule{Prob: rng.Float64() * 0.5, Max: 10},
		EndpointCrash: faultinject.Rule{Prob: rng.Float64() * 0.15, Max: 1},
		TransferError: faultinject.Rule{Prob: rng.Float64() * 0.4, Max: 3},
		TransferStall: faultinject.Rule{Prob: rng.Float64() * 0.5, Max: 5},
		StallFor:      3 * time.Millisecond,
		ExtractError:  faultinject.Rule{Prob: rng.Float64() * 0.3, Max: 6},
		ExtractPanic:  faultinject.Rule{Prob: rng.Float64() * 0.2, Max: 3},
		QueueDrop:     faultinject.Rule{Prob: rng.Float64() * 0.3, Max: 10},
	}
}

func runChaosJob(t *testing.T, seed int64) {
	clk := clock.NewReal()
	ob := obs.New(clk)
	inj := faultinject.New(chaosPlan(seed))

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

	svc := New(Config{
		Clock: clk, FaaS: fsvc, Fabric: fabric,
		Registry: registry.New(clk, 0), Library: extractors.DefaultLibrary(),
		PrefetchQueue: prefetch,
		PrefetchDone:  prefetchDone, ResultQueue: results,
		Policy:          scheduler.LocalPolicy{},
		XtractBatchSize: 2, FuncXBatchSize: 2,
		Checkpoint: true,
		Obs:        ob,
		Retry: RetryPolicy{
			MaxAttempts: 3,
			BaseBackoff: 2 * time.Millisecond,
			MaxBackoff:  20 * time.Millisecond,
			JitterSeed:  seed,
			JobBudget:   128,
		},
		ExtractFaults: inj,
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// petrel: storage only — its families must stage to river's compute,
	// crossing the transfer fabric and prefetch queues.
	petrelFS := store.NewMemFS("petrel", nil)
	fabric.AddEndpoint("petrel", petrelFS)
	svc.AddSite(&Site{Name: "petrel", Store: petrelFS, TransferID: "petrel"})

	// river: compute site; also holds local files.
	riverFS := store.NewMemFS("river", nil)
	fabric.AddEndpoint("river", riverFS)
	ep := faas.NewEndpoint("ep-river", 3, clk)
	fsvc.RegisterEndpoint(ep)
	if err := ep.Start(ctx); err != nil {
		t.Fatal(err)
	}
	svc.AddSite(&Site{
		Name: "river", Store: riverFS, TransferID: "river",
		StagePath: "/xtract-stage",
	})
	if err := svc.SwapCompute("river", ep); err != nil {
		t.Fatal(err)
	}
	if err := svc.RegisterExtractors(); err != nil {
		t.Fatal(err)
	}

	seedScience(t, petrelFS, "/data")
	seedScience(t, riverFS, "/data")

	pf := transfer.NewPrefetcher(fabric, prefetch, prefetchDone, clk)
	go pf.Run(ctx, 2)
	dest := store.NewMemFS("user-dest", nil)
	valsvc := validate.NewService(validate.Passthrough{}, results, dest)
	go valsvc.Run(ctx)

	// Even seeds get a medic: when the injected crash kills river's
	// endpoint, a replacement comes up and is swapped in, modeling the
	// paper's endpoint-restart recovery. Odd seeds must converge without
	// help (dead-lettering whatever the dead endpoint strands).
	if seed%2 == 0 {
		go func() {
			gen := 0
			for {
				select {
				case <-ctx.Done():
					return
				case <-time.After(5 * time.Millisecond):
				}
				site, ok := svc.Site("river")
				if !ok {
					return
				}
				cur := site.ComputeEndpoint()
				if cur == nil || !cur.Stopped() {
					continue
				}
				gen++
				ep2 := faas.NewEndpoint(fmt.Sprintf("ep-river-%d", gen), 3, clk)
				fsvc.RegisterEndpoint(ep2)
				if err := ep2.Start(ctx); err != nil {
					return
				}
				_ = svc.SwapCompute("river", ep2)
				_ = svc.RegisterExtractors()
			}
		}()
	}

	type result struct {
		stats JobStats
		err   error
	}
	done := make(chan result, 1)
	go func() {
		stats, err := svc.RunJob(context.Background(), []RepoSpec{
			{
				SiteName: "petrel",
				Roots:    []string{"/data"},
				Grouper:  crawler.SingleFileGrouper(extractors.DefaultLibrary()),
			},
			{
				SiteName: "river",
				Roots:    []string{"/data"},
				Grouper:  crawler.SingleFileGrouper(extractors.DefaultLibrary()),
			},
		})
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

	// Convergence accounting: every emitted family reached a terminal
	// outcome — done or failed, nothing stranded.
	if stats.FamiliesDone+stats.FamiliesFailed != stats.Crawl.FamiliesEmitted {
		t.Fatalf("seed=%d: done(%d)+failed(%d) != emitted(%d)",
			seed, stats.FamiliesDone, stats.FamiliesFailed, stats.Crawl.FamiliesEmitted)
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
		if len(rec.DeadLetters) != 0 {
			t.Fatalf("seed=%d: COMPLETE job has dead letters: %+v", seed, rec.DeadLetters)
		}
	case registry.JobFailed:
		if len(rec.DeadLetters) == 0 {
			t.Fatalf("seed=%d: FAILED job has no dead-letter report", seed)
		}
		if rec.Err == "" {
			t.Fatalf("seed=%d: FAILED job has empty Err", seed)
		}
	default:
		t.Fatalf("seed=%d: non-terminal job state %s", seed, rec.State)
	}
}

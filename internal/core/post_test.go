package core

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"xtract/internal/cache"
	"xtract/internal/journal"
	"xtract/internal/registry"
	"xtract/internal/scheduler"
	"xtract/internal/tenant"
)

// stepHook is an extractor fault hook. With fail set it fails every step;
// otherwise it lets the first step through and holds every later one until
// release closes, so a job ended from outside has done some work and no
// more.
type stepHook struct {
	fail    bool
	calls   atomic.Int64
	release chan struct{}
}

func (h *stepHook) ExtractFault(string, string) (bool, error) {
	if h.fail {
		return false, errors.New("injected extractor failure")
	}
	if h.calls.Add(1) > 1 {
		<-h.release
	}
	return false, nil
}

// TestBillEqualsStatsOnEveryExit: a job counts each event once, in its
// JobStats, and its pump posts the growth to the process totals and to the
// tenant's bill once a pass and as run returns. After Wait both equal the
// job's stats, however it ended: converged (a cold run that stages its
// families, then a warm one answered by the cache), failed by dead-lettered
// steps, cancelled, and suspended by a draining shutdown, the exit that
// publishes nothing.
func TestBillEqualsStatsOnEveryExit(t *testing.T) {
	repo := []journal.RepoSpec{{Site: "petrel", Roots: []string{"/data"}, Grouper: "single"}}
	setup := func(t *testing.T, hook *stepHook) *harness {
		h := newHarnessCfg(t, []siteSpec{{name: "petrel"}, {name: "river", workers: 2}}, scheduler.LocalPolicy{}, func(cfg *Config) {
			cfg.Cache = cache.New(0)
			cfg.Tenants = tenant.NewController(tenant.Config{Clock: cfg.Clock})
			cfg.XtractBatchSize = 1 // a step commits without waiting for another
			if hook != nil {
				cfg.ExtractFaults = hook
			}
		})
		seedScience(t, h.sites["petrel"], "/data")
		return h
	}
	// interrupted runs a job until one step has committed, then ends it
	// from outside.
	interrupted := func(t *testing.T, end func(*harness, *Job)) (*harness, JobStats) {
		hook := &stepHook{release: make(chan struct{})}
		h := setup(t, hook)
		t.Cleanup(func() { close(hook.release) })
		job, err := h.svc.Submit(context.Background(), journal.JobSpec{Repos: repo})
		if err != nil {
			t.Fatal(err)
		}
		eventually(t, "a step committed", func() bool { return job.Record().GroupsDone > 0 })
		end(h, job)
		stats, err := job.Wait()
		if !errors.Is(err, context.Canceled) || stats.StepsProcessed == 0 {
			t.Fatalf("job = %+v, %v; want cancelled after a step", stats, err)
		}
		return h, stats
	}

	t.Run("converged", func(t *testing.T) {
		h := setup(t, nil)
		cold, err := h.svc.RunJob(context.Background(), repo)
		if err != nil || cold.BytesStaged == 0 || cold.ExtractorTime == 0 {
			t.Fatalf("cold job = %+v, %v; want staged bytes and extractor time", cold, err)
		}
		warm, err := h.svc.RunJob(context.Background(), repo)
		if err != nil || warm.CacheHits == 0 {
			t.Fatalf("warm job = %+v, %v; want cache hits", warm, err)
		}
		billMatches(t, h, cold, warm)
	})
	t.Run("failed", func(t *testing.T) {
		h := setup(t, &stepHook{fail: true})
		job, err := h.svc.Submit(context.Background(), journal.JobSpec{Repos: repo})
		if err != nil {
			t.Fatal(err)
		}
		stats, _ := job.Wait()
		if rec := job.Record(); rec.State != registry.JobFailed || stats.StepsDeadLettered == 0 {
			t.Fatalf("job %s with stats %+v; want FAILED by dead-lettered steps", rec.State, stats)
		}
		billMatches(t, h, stats)
	})
	t.Run("cancelled", func(t *testing.T) {
		h, stats := interrupted(t, func(h *harness, j *Job) { h.svc.Cancel(j.ID) })
		billMatches(t, h, stats)
	})
	t.Run("draining", func(t *testing.T) {
		h, stats := interrupted(t, func(h *harness, j *Job) {
			h.svc.BeginShutdown()
			h.svc.Cancel(j.ID)
		})
		billMatches(t, h, stats)
	})
}

// billMatches checks that the tenant's bill and the process totals are
// the sums of the jobs' stats.
func billMatches(t *testing.T, h *harness, jobs ...JobStats) {
	t.Helper()
	var posted JobStats // the counts the process totals keep
	var steps, failed, hits, staged int64
	var extractor time.Duration
	for _, j := range jobs {
		for _, c := range pumpCounts {
			*c.of(&posted) += *c.of(&j)
		}
		steps, failed, hits, staged = steps+j.StepsProcessed, failed+j.StepsFailed, hits+j.CacheHits, staged+j.BytesStaged
		extractor += j.ExtractorTime
	}
	if got := totals(h.svc); got != posted {
		t.Errorf("process totals\n got %+v\nwant %+v", got, posted)
	}
	u, _ := h.svc.cfg.Tenants.UsageFor(tenant.Default)
	if u.StepsProcessed != steps || u.StepsFailed != failed || u.CacheHits != hits || u.BytesStaged != staged ||
		math.Abs(u.ExtractorSeconds-extractor.Seconds()) > 1e-9*extractor.Seconds() {
		t.Errorf("bill %+v; the jobs' stats sum to %d steps, %d failed, %d cache hits, %d bytes staged, %v extracting",
			u, steps, failed, hits, staged, extractor)
	}
}

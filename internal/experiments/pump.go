package experiments

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"xtract/internal/clock"
	"xtract/internal/core"
	"xtract/internal/deploy"
	"xtract/internal/extractors"
	"xtract/internal/faas"
	"xtract/internal/family"
	"xtract/internal/journal"
	"xtract/internal/store"
)

// PumpRun reports one orchestration-overhead measurement: a job of no-op
// extraction steps spread over several sites, timed end to end. Because
// the extractors do nothing, elapsed time is dominated by the pump —
// batching, submission, polling/notification, and result handling — so
// TasksPerSec and WakeupsPerTask measure the control loop itself, not
// extraction work.
type PumpRun struct {
	// Pipeline names the orchestration implementation measured
	// (core.PipelineKind), so baselines compare like with like.
	Pipeline string        `json:"pipeline"`
	Families int           `json:"families"`
	Sites    int           `json:"sites"`
	Steps    int64         `json:"steps"`
	Elapsed  time.Duration `json:"elapsed_ns"`
	// TasksPerSec is completed steps per wall-clock second.
	TasksPerSec float64 `json:"tasks_per_sec"`
	// Wakeups counts pump loop iterations; IdleWakeups the subset that
	// found no work (pure control overhead). The per-task ratios are the
	// regression-tracked numbers.
	Wakeups            int64   `json:"pump_wakeups"`
	IdleWakeups        int64   `json:"pump_idle_wakeups"`
	WakeupsPerTask     float64 `json:"wakeups_per_task"`
	IdleWakeupsPerTask float64 `json:"idle_wakeups_per_task"`
	// AllocsPerTask is the heap-allocation count (runtime.MemStats.Mallocs
	// delta across the job, every goroutine included) divided by completed
	// steps — the perf-gate's enforced ceiling. It covers the whole
	// lifecycle: crawl, dispatch encode, journal, completion decode, and
	// result emission.
	AllocsPerTask float64 `json:"allocs_per_task"`
}

// noopExtractor applies to every file and returns constant metadata
// without reading content: the cheapest possible step, isolating
// orchestration overhead.
type noopExtractor struct{}

func (noopExtractor) Name() string                     { return "noop" }
func (noopExtractor) Container() string                { return "noop-container" }
func (noopExtractor) Applies(info store.FileInfo) bool { return true }
func (noopExtractor) Extract(g *family.Group, files map[string][]byte) (map[string]interface{}, error) {
	return map[string]interface{}{"files": len(files)}, nil
}

// PumpOverhead runs one no-op-extractor job of familiesPerSite
// single-file families on each of nSites compute sites and measures
// orchestration throughput. FaaS control-plane costs are calibrated to
// the paper's Figure 3 shape (scaled down) so per-request auth and
// per-poll costs — the overhead an event-driven pump eliminates — are
// visible in the result.
func PumpOverhead(familiesPerSite, nSites int, seed int64) (PumpRun, error) {
	return runPump(familiesPerSite, nSites, seed, nil)
}

// runPump is the shared pump workload; jnl, when non-nil, attaches a
// durable job journal so the same workload measures journaling overhead.
func runPump(familiesPerSite, nSites int, seed int64, jnl *journal.Journal) (PumpRun, error) {
	if nSites < 1 {
		nSites = 1
	}
	clk := clock.NewReal()
	lib := extractors.NewLibrary(noopExtractor{})

	specs := make([]deploy.SiteSpec, 0, nSites)
	repos := make([]journal.RepoSpec, 0, nSites)
	for s := 0; s < nSites; s++ {
		name := fmt.Sprintf("site%02d", s)
		fs := store.NewMemFS(name, nil)
		for i := 0; i < familiesPerSite; i++ {
			if err := fs.Write(fmt.Sprintf("/p/d%02d/f%05d.dat", i/64, i), []byte{byte(seed), byte(i)}); err != nil {
				return PumpRun{}, err
			}
		}
		specs = append(specs, deploy.SiteSpec{Name: name, Store: fs, Workers: 8})
		repos = append(repos, journal.RepoSpec{
			Site:    name,
			Roots:   []string{"/p"},
			Grouper: "single",
		})
	}

	d, err := deploy.New(context.Background(), clk, specs, deploy.Options{
		Library: lib,
		Journal: jnl,
		FaaSCosts: faas.Costs{
			AuthPerRequest:  500 * time.Microsecond,
			SubmitPerBatch:  time.Millisecond,
			SubmitPerTask:   20 * time.Microsecond,
			DispatchPerTask: 50 * time.Microsecond,
			ResultPerTask:   20 * time.Microsecond,
		},
	})
	if err != nil {
		return PumpRun{}, err
	}
	defer d.Close()

	// Charge a small per-invocation worker overhead so task completions
	// trickle in instead of appearing instantly: this is the regime where
	// a poll-driven pump spins (idle wakeups, each paying an auth'd poll)
	// while an event-driven pump sleeps until notified.
	for s := 0; s < nSites; s++ {
		site, _ := d.Service.Site(fmt.Sprintf("site%02d", s))
		if ep := site.ComputeEndpoint(); ep != nil {
			ep.ExecOverheadPerTask = time.Millisecond
		}
	}

	var memBefore, memAfter runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	start := time.Now()
	stats, err := d.Service.RunJob(context.Background(), repos)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&memAfter)
	if err != nil {
		return PumpRun{}, err
	}
	if stats.FamiliesFailed > 0 {
		return PumpRun{}, fmt.Errorf("experiments: %d families failed", stats.FamiliesFailed)
	}

	run := PumpRun{
		Pipeline:    core.PipelineKind,
		Families:    familiesPerSite * nSites,
		Sites:       nSites,
		Steps:       stats.StepsProcessed,
		Elapsed:     elapsed,
		Wakeups:     stats.PumpWakeups,
		IdleWakeups: stats.PumpIdleWakeups,
	}
	if elapsed > 0 {
		run.TasksPerSec = float64(stats.StepsProcessed) / elapsed.Seconds()
	}
	if stats.StepsProcessed > 0 {
		run.WakeupsPerTask = float64(stats.PumpWakeups) / float64(stats.StepsProcessed)
		run.IdleWakeupsPerTask = float64(stats.PumpIdleWakeups) / float64(stats.StepsProcessed)
		run.AllocsPerTask = float64(memAfter.Mallocs-memBefore.Mallocs) / float64(stats.StepsProcessed)
	}
	return run, nil
}

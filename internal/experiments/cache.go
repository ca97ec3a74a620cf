package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"xtract/internal/clock"
	"xtract/internal/core"
	"xtract/internal/crawler"
	"xtract/internal/dataset"
	"xtract/internal/deploy"
	"xtract/internal/extractors"
	"xtract/internal/faas"
	"xtract/internal/store"
)

// CacheRun reports one cold-vs-warm incremental re-extraction comparison
// over a live deployment: the cold run extracts everything, the warm run
// re-crawls byte-identical content and must replay every step from the
// extraction result cache.
type CacheRun struct {
	Files       int           `json:"files"`
	Steps       int64         `json:"steps"`
	ColdElapsed time.Duration `json:"cold_elapsed_ns"`
	WarmElapsed time.Duration `json:"warm_elapsed_ns"`
	// ColdTasks / WarmTasks count FaaS task submissions per run; WarmTasks
	// must be zero for a fully cached warm run.
	ColdTasks int64 `json:"cold_tasks"`
	WarmTasks int64 `json:"warm_tasks"`
	CacheHits int64 `json:"cache_hits"`
	// Speedup is cold wall-clock over warm wall-clock.
	Speedup float64 `json:"speedup"`
}

// seedCacheCorpus writes a mixed text/tabular/structured corpus of
// nFiles deterministic files under /repo.
func seedCacheCorpus(fs *store.MemFS, nFiles int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < nFiles; i++ {
		var (
			path string
			body []byte
		)
		switch i % 4 {
		case 0:
			path = fmt.Sprintf("/repo/d%02d/notes%d.txt", i/20, i)
			body = dataset.TextFile(rng, 200)
		case 1:
			path = fmt.Sprintf("/repo/d%02d/run%d.csv", i/20, i)
			body = dataset.CSVFile(rng, 30, 4)
		case 2:
			path = fmt.Sprintf("/repo/d%02d/meta%d.json", i/20, i)
			body = dataset.JSONFile(rng)
		default:
			path = fmt.Sprintf("/repo/d%02d/calc%d.py", i/20, i)
			body = dataset.PythonFile(rng)
		}
		if err := fs.Write(path, body); err != nil {
			return err
		}
	}
	return nil
}

// CacheColdWarm stands up a deployment with the result cache enabled and
// FaaS control-plane costs calibrated so cold runs are extraction
// dominated (per-task submit + dispatch latency, as in Figure 3), then
// runs the same job twice and times both. The paper's serverless
// economics make re-extraction expensive precisely because of those
// per-task costs; the content-addressed cache removes them entirely for
// unchanged repositories.
func CacheColdWarm(nFiles int, seed int64) (CacheRun, error) {
	clk := clock.NewReal()
	site := store.NewMemFS("petrel", nil)
	if err := seedCacheCorpus(site, nFiles, seed); err != nil {
		return CacheRun{}, err
	}
	d, err := deploy.New(context.Background(), clk, []deploy.SiteSpec{
		{Name: "petrel", Store: site, Workers: 8},
	}, deploy.Options{
		CacheCapacity: 4 * nFiles,
		FaaSCosts: faas.Costs{
			SubmitPerTask:   time.Millisecond,
			DispatchPerTask: 5 * time.Millisecond,
			ResultPerTask:   time.Millisecond,
		},
	})
	if err != nil {
		return CacheRun{}, err
	}
	defer d.Close()

	repos := []core.RepoSpec{{
		SiteName: "petrel",
		Roots:    []string{"/repo"},
		Grouper:  crawler.SingleFileGrouper(extractors.DefaultLibrary()),
	}}
	timedRun := func() (core.JobStats, time.Duration, int64, error) {
		before := d.FaaS.TasksSubmitted.Load()
		start := time.Now()
		stats, err := d.Service.RunJob(context.Background(), repos)
		elapsed := time.Since(start)
		if err != nil {
			return core.JobStats{}, 0, 0, err
		}
		if stats.FamiliesFailed > 0 {
			return core.JobStats{}, 0, 0,
				fmt.Errorf("experiments: %d families failed", stats.FamiliesFailed)
		}
		return stats, elapsed, d.FaaS.TasksSubmitted.Load() - before, nil
	}

	coldStats, coldElapsed, coldTasks, err := timedRun()
	if err != nil {
		return CacheRun{}, err
	}
	warmStats, warmElapsed, warmTasks, err := timedRun()
	if err != nil {
		return CacheRun{}, err
	}

	run := CacheRun{
		Files:       nFiles,
		Steps:       coldStats.StepsProcessed,
		ColdElapsed: coldElapsed,
		WarmElapsed: warmElapsed,
		ColdTasks:   coldTasks,
		WarmTasks:   warmTasks,
		CacheHits:   warmStats.CacheHits,
	}
	if warmElapsed > 0 {
		run.Speedup = float64(coldElapsed) / float64(warmElapsed)
	}
	return run, nil
}

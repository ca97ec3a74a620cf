package experiments

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"xtract/internal/clock"
	"xtract/internal/core"
	"xtract/internal/deploy"
	"xtract/internal/extractors"
	"xtract/internal/faas"
	"xtract/internal/family"
	"xtract/internal/faultinject"
	"xtract/internal/journal"
	"xtract/internal/store"
)

// TailRun reports the tail-latency scenario: many small jobs over an
// extractor with a heavy-tailed runtime (a small fraction of executions
// straggle), measured with hedged speculative execution off and then on.
// P99Speedup (unhedged p99 job makespan over hedged) and
// DuplicateWorkRatio (speculative duplicates per completed step) are the
// perf-gate-enforced numbers: hedging must cut the tail without paying
// for it in duplicated work.
type TailRun struct {
	Jobs        int `json:"jobs"`
	FilesPerJob int `json:"files_per_job"`
	// StragglerProb is the per-execution probability of the slow path;
	// StragglerSleep/BaseSleep are the two runtimes of the bimodal
	// extractor.
	StragglerProb  float64       `json:"straggler_prob"`
	StragglerSleep time.Duration `json:"straggler_sleep_ns"`
	BaseSleep      time.Duration `json:"base_sleep_ns"`
	// Per-job makespan quantiles for each mode.
	UnhedgedP50 time.Duration `json:"unhedged_p50_ns"`
	UnhedgedP99 time.Duration `json:"unhedged_p99_ns"`
	HedgedP50   time.Duration `json:"hedged_p50_ns"`
	HedgedP99   time.Duration `json:"hedged_p99_ns"`
	// P99Speedup is UnhedgedP99 / HedgedP99 — the gate floor.
	P99Speedup float64 `json:"p99_speedup"`
	// Counters from the hedged measurement runs.
	StepsProcessed int64 `json:"steps_processed"`
	StepsHedged    int64 `json:"steps_hedged"`
	HedgeWins      int64 `json:"hedge_wins"`
	DuplicateSteps int64 `json:"duplicate_steps"`
	// DuplicateWorkRatio is StepsHedged / StepsProcessed — the gate
	// ceiling on speculative waste.
	DuplicateWorkRatio float64 `json:"duplicate_work_ratio"`
}

// stragglerExtractor models a heavy-tailed extractor: most executions
// take base, but a deterministic hash draw per execution (so hedged
// re-executions draw independently) straggles for sleep instead. It is
// what hedging exists to beat — the straggler is a property of the
// individual execution, not the file, so a speculative duplicate almost
// always finishes at base speed.
type stragglerExtractor struct {
	seed  int64
	prob  float64
	sleep time.Duration
	base  time.Duration
	calls atomic.Uint64
}

func (s *stragglerExtractor) Name() string                     { return "straggle" }
func (s *stragglerExtractor) Container() string                { return "straggle-container" }
func (s *stragglerExtractor) Applies(info store.FileInfo) bool { return true }

func (s *stragglerExtractor) Extract(g *family.Group, files map[string][]byte) (map[string]interface{}, error) {
	d := s.base
	if faultinject.Hash01(s.seed, "straggler", "", s.calls.Add(1)) < s.prob {
		d = s.sleep
	}
	time.Sleep(d)
	return map[string]interface{}{"files": len(files)}, nil
}

// TailLatency runs jobs small single-site jobs of filesPerJob single-file
// families twice — hedging off, then hedging on with a second compute
// site to hedge to — and compares per-job makespan quantiles. The hedged
// deployment first runs warmup jobs to prime the service's latency
// estimator past MinSamples, mirroring a long-lived service.
func TailLatency(jobs, filesPerJob int, seed int64) (TailRun, error) {
	const (
		stragglerProb  = 0.04
		stragglerSleep = 150 * time.Millisecond
		baseSleep      = time.Millisecond
		warmupJobs     = 2
	)
	run := TailRun{
		Jobs:           jobs,
		FilesPerJob:    filesPerJob,
		StragglerProb:  stragglerProb,
		StragglerSleep: stragglerSleep,
		BaseSleep:      baseSleep,
	}

	measure := func(hedge core.HedgePolicy, warmup int) ([]time.Duration, core.JobStats, error) {
		clk := clock.NewReal()
		lib := extractors.NewLibrary(&stragglerExtractor{
			seed: seed, prob: stragglerProb, sleep: stragglerSleep, base: baseSleep,
		})

		home := store.NewMemFS("home", nil)
		for i := 0; i < filesPerJob; i++ {
			if err := home.Write(fmt.Sprintf("/p/d%02d/f%05d.dat", i/64, i), []byte{byte(seed), byte(i)}); err != nil {
				return nil, core.JobStats{}, err
			}
		}
		specs := []deploy.SiteSpec{
			{Name: "home", Store: home, Workers: 8},
			{Name: "spare", Store: store.NewMemFS("spare", nil), Workers: 8},
		}
		repos := []journal.RepoSpec{{
			Site:    "home",
			Roots:   []string{"/p"},
			Grouper: "single",
		}}

		d, err := deploy.New(context.Background(), clk, specs, deploy.Options{
			Library: lib,
			// One step per task: a hedge duplicates exactly the straggling
			// step, not innocent batch-mates, keeping duplicate work at the
			// straggler rate.
			Settings: core.Settings{Hedge: hedge, XtractBatchSize: 1},
			FaaSCosts: faas.Costs{
				AuthPerRequest:  500 * time.Microsecond,
				SubmitPerBatch:  time.Millisecond,
				SubmitPerTask:   20 * time.Microsecond,
				DispatchPerTask: 50 * time.Microsecond,
				ResultPerTask:   20 * time.Microsecond,
			},
		})
		if err != nil {
			return nil, core.JobStats{}, err
		}
		defer d.Close()

		var agg core.JobStats
		makespans := make([]time.Duration, 0, jobs)
		for j := 0; j < warmup+jobs; j++ {
			start := time.Now()
			stats, err := d.Service.RunJob(context.Background(), repos)
			elapsed := time.Since(start)
			if err != nil {
				return nil, core.JobStats{}, err
			}
			if stats.FamiliesFailed > 0 {
				return nil, core.JobStats{}, fmt.Errorf("experiments: %d families failed", stats.FamiliesFailed)
			}
			if j < warmup {
				continue // estimator priming, not measured
			}
			makespans = append(makespans, elapsed)
			agg.StepsProcessed += stats.StepsProcessed
			agg.StepsHedged += stats.StepsHedged
			agg.HedgeWins += stats.HedgeWins
			agg.DuplicateSteps += stats.DuplicateSteps
		}
		return makespans, agg, nil
	}

	off, _, err := measure(core.HedgePolicy{}, 0)
	if err != nil {
		return TailRun{}, err
	}
	on, stats, err := measure(core.HedgePolicy{
		Enabled:    true,
		Quantile:   0.9,
		Multiplier: 3,
		MinSamples: 10,
	}, warmupJobs)
	if err != nil {
		return TailRun{}, err
	}

	run.UnhedgedP50, run.UnhedgedP99 = quantileDur(off, 0.50), quantileDur(off, 0.99)
	run.HedgedP50, run.HedgedP99 = quantileDur(on, 0.50), quantileDur(on, 0.99)
	if run.HedgedP99 > 0 {
		run.P99Speedup = float64(run.UnhedgedP99) / float64(run.HedgedP99)
	}
	run.StepsProcessed = stats.StepsProcessed
	run.StepsHedged = stats.StepsHedged
	run.HedgeWins = stats.HedgeWins
	run.DuplicateSteps = stats.DuplicateSteps
	if stats.StepsProcessed > 0 {
		run.DuplicateWorkRatio = float64(stats.StepsHedged) / float64(stats.StepsProcessed)
	}
	return run, nil
}

// quantileDur returns the q-quantile of the samples: the sorted sample at
// index ⌊q·(n−1)⌋, with no interpolation.
func quantileDur(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	tmp := make([]time.Duration, len(samples))
	copy(tmp, samples)
	sort.Slice(tmp, func(i, j int) bool { return tmp[i] < tmp[j] })
	idx := int(q * float64(len(tmp)-1))
	return tmp[idx]
}

package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"xtract/internal/clock"
	"xtract/internal/core"
	"xtract/internal/deploy"
	"xtract/internal/extractors"
	"xtract/internal/faas"
	"xtract/internal/journal"
	"xtract/internal/store"
)

// ScalePoint is one rung of the pump scaling curve: p concurrent job
// pumps, each orchestrating its own no-op job against its own site,
// sharing one service (registry, scheduler, FaaS fabric, validation).
type ScalePoint struct {
	Pumps    int           `json:"pumps"`
	Families int           `json:"families"`
	Steps    int64         `json:"steps"`
	Elapsed  time.Duration `json:"elapsed_ns"`
	// AggregateTasksPerSec is total completed steps across every pump
	// divided by wall-clock time — the number that must grow as pumps
	// are added for the control plane to be scalable.
	AggregateTasksPerSec float64 `json:"aggregate_tasks_per_sec"`
	// PerPumpTasksPerSec is the aggregate divided by the pump count.
	PerPumpTasksPerSec float64 `json:"per_pump_tasks_per_sec"`
	// AllocsPerTask is the whole-process heap-allocation count per
	// completed step at this concurrency.
	AllocsPerTask float64 `json:"allocs_per_task"`
	// Speedup is AggregateTasksPerSec relative to the 1-pump point.
	Speedup float64 `json:"speedup_vs_one_pump"`
}

// ScaleRun is the multi-pump scaling measurement: the curve plus the
// headline figures the perf gate reads (max-pump aggregate throughput
// and single-pump allocations per task).
type ScaleRun struct {
	Pipeline        string       `json:"pipeline"`
	FamiliesPerPump int          `json:"families_per_pump"`
	MaxPumps        int          `json:"max_pumps"`
	GOMAXPROCS      int          `json:"gomaxprocs"`
	Points          []ScalePoint `json:"points"`
	// AggregateTasksPerSec is the max-pump point's aggregate — the
	// gate's floor figure.
	AggregateTasksPerSec float64 `json:"aggregate_tasks_per_sec"`
	// AllocsPerTask is the single-pump point's figure, directly
	// comparable to the pump bench's allocs gate.
	AllocsPerTask float64 `json:"allocs_per_task"`
}

// scaleCurve returns the pump counts measured: powers of two up to and
// including maxPumps.
func scaleCurve(maxPumps int) []int {
	if maxPumps < 1 {
		maxPumps = 1
	}
	var curve []int
	for p := 1; p < maxPumps; p *= 2 {
		curve = append(curve, p)
	}
	return append(curve, maxPumps)
}

// PumpScaling measures how orchestration throughput grows with
// concurrent job pumps. Each point deploys p single-site repositories of
// familiesPerPump no-op families on one shared service and runs p
// concurrent RunJob calls — one pump per job — so the point's aggregate
// throughput covers everything the pumps contend on: the scheduler, the
// FaaS control plane, result queues, and the allocator.
func PumpScaling(familiesPerPump, maxPumps int, seed int64) (ScaleRun, error) {
	run := ScaleRun{
		FamiliesPerPump: familiesPerPump,
		MaxPumps:        maxPumps,
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
	}
	for _, pumps := range scaleCurve(maxPumps) {
		pt, err := scalePoint(familiesPerPump, pumps, seed)
		if err != nil {
			return ScaleRun{}, err
		}
		if len(run.Points) > 0 && run.Points[0].AggregateTasksPerSec > 0 {
			pt.Speedup = pt.AggregateTasksPerSec / run.Points[0].AggregateTasksPerSec
		} else {
			pt.Speedup = 1
		}
		run.Points = append(run.Points, pt)
	}
	run.Pipeline = core.PipelineKind
	run.AggregateTasksPerSec = run.Points[len(run.Points)-1].AggregateTasksPerSec
	run.AllocsPerTask = run.Points[0].AllocsPerTask
	return run, nil
}

// scalePoint deploys and measures one rung of the curve.
func scalePoint(familiesPerPump, pumps int, seed int64) (ScalePoint, error) {
	clk := clock.NewReal()
	lib := extractors.NewLibrary(noopExtractor{})

	specs := make([]deploy.SiteSpec, 0, pumps)
	repos := make([][]journal.RepoSpec, 0, pumps)
	for p := 0; p < pumps; p++ {
		name := fmt.Sprintf("pump%02d", p)
		fs := store.NewMemFS(name, nil)
		for i := 0; i < familiesPerPump; i++ {
			if err := fs.Write(fmt.Sprintf("/p/d%02d/f%05d.dat", i/64, i), []byte{byte(seed), byte(i)}); err != nil {
				return ScalePoint{}, err
			}
		}
		specs = append(specs, deploy.SiteSpec{Name: name, Store: fs, Workers: 16})
		repos = append(repos, []journal.RepoSpec{{
			Site:    name,
			Roots:   []string{"/p"},
			Grouper: "single",
		}})
	}

	d, err := deploy.New(context.Background(), clk, specs, deploy.Options{
		Library: lib,
		FaaSCosts: faas.Costs{
			AuthPerRequest:  500 * time.Microsecond,
			SubmitPerBatch:  time.Millisecond,
			SubmitPerTask:   20 * time.Microsecond,
			DispatchPerTask: 50 * time.Microsecond,
			ResultPerTask:   20 * time.Microsecond,
		},
	})
	if err != nil {
		return ScalePoint{}, err
	}
	defer d.Close()
	for p := 0; p < pumps; p++ {
		site, _ := d.Service.Site(fmt.Sprintf("pump%02d", p))
		if ep := site.ComputeEndpoint(); ep != nil {
			ep.ExecOverheadPerTask = time.Millisecond
		}
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		steps    int64
		failed   int64
		firstErr error
	)
	var memBefore, memAfter runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	start := time.Now()
	for p := 0; p < pumps; p++ {
		wg.Add(1)
		go func(r []journal.RepoSpec) {
			defer wg.Done()
			stats, err := d.Service.RunJob(context.Background(), r)
			mu.Lock()
			defer mu.Unlock()
			steps += stats.StepsProcessed
			failed += stats.FamiliesFailed
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}(repos[p])
	}
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&memAfter)
	if firstErr != nil {
		return ScalePoint{}, firstErr
	}
	if failed > 0 {
		return ScalePoint{}, fmt.Errorf("experiments: %d families failed at %d pumps", failed, pumps)
	}

	pt := ScalePoint{
		Pumps:    pumps,
		Families: familiesPerPump * pumps,
		Steps:    steps,
		Elapsed:  elapsed,
	}
	if elapsed > 0 {
		pt.AggregateTasksPerSec = float64(steps) / elapsed.Seconds()
		pt.PerPumpTasksPerSec = pt.AggregateTasksPerSec / float64(pumps)
	}
	if steps > 0 {
		pt.AllocsPerTask = float64(memAfter.Mallocs-memBefore.Mallocs) / float64(steps)
	}
	return pt, nil
}

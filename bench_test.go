// Package xtract_test holds the benchmark harness: one testing.B per
// table and figure of the paper's evaluation (run them all with
// `go test -bench=. -benchmem`), plus ablation benches for the design
// choices called out in DESIGN.md. Custom metrics report each
// experiment's headline quantity (completion seconds, tasks/s, ...) so
// the bench output reads like the paper's results tables.
package xtract_test

import (
	"math/rand"
	"testing"
	"time"

	"xtract/internal/dataset"
	"xtract/internal/experiments"
	"xtract/internal/family"
	"xtract/internal/scheduler"
	"xtract/internal/sim"
)

// BenchmarkTable1_Repositories regenerates Table 1's repository
// characteristics from the synthetic population models.
func BenchmarkTable1_Repositories(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table1(0.05, 42)
		b.ReportMetric(rows[0].SizeTB, "mdf-TB")
		b.ReportMetric(float64(rows[0].UniqueExtensions), "mdf-exts")
		b.ReportMetric(rows[1].SizeTB*1000, "cdiac-GB")
	}
}

// BenchmarkFigure2a_StrongScaling regenerates the strong-scaling curves:
// 200k invocations, 512–8192 Theta workers.
func BenchmarkFigure2a_StrongScaling(b *testing.B) {
	for _, ext := range []string{"imagesort", "matio"} {
		b.Run(ext, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pts := experiments.Figure2Strong(ext, []int{512, 1024, 2048, 4096, 8192}, 200000, 42)
				b.ReportMetric(pts[0].Completion.Seconds(), "s-at-512")
				b.ReportMetric(pts[2].Completion.Seconds(), "s-at-2048")
				b.ReportMetric(pts[4].Completion.Seconds(), "s-at-8192")
			}
		})
	}
}

// BenchmarkFigure2b_WeakScaling regenerates the weak-scaling curves: 24
// invocations per worker.
func BenchmarkFigure2b_WeakScaling(b *testing.B) {
	for _, ext := range []string{"imagesort", "matio"} {
		b.Run(ext, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pts := experiments.Figure2Weak(ext, []int{512, 2048, 8192}, 24, 42)
				b.ReportMetric(pts[0].Completion.Seconds(), "s-at-512")
				b.ReportMetric(pts[2].Completion.Seconds(), "s-at-8192")
			}
		})
	}
}

// BenchmarkThroughputPeak regenerates §5.2.3's peak extraction
// throughput (paper: 357.5 and 249.3 invocations/s).
func BenchmarkThroughputPeak(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.ReportMetric(experiments.PeakThroughput("imagesort", 200000, 42), "imagesort/s")
		b.ReportMetric(experiments.PeakThroughput("matio", 200000, 42), "matio/s")
	}
}

// BenchmarkFigure3_LatencyBreakdown regenerates the per-component
// latency breakdown for a single unbatched keyword task.
func BenchmarkFigure3_LatencyBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Figure3()
		var total time.Duration
		for _, r := range rows {
			total += r.Mean
		}
		b.ReportMetric(total.Seconds()*1000, "total-ms")
		b.ReportMetric(float64(len(rows)), "components")
	}
}

// BenchmarkFigure4_CrawlParallelization regenerates the crawl thread
// sweep over 2.3M files (paper: ~50 min at 2 threads, ~25 min at 16–32).
func BenchmarkFigure4_CrawlParallelization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.Figure4([]int{2, 4, 8, 16, 32})
		b.ReportMetric(pts[0].Completion.Minutes(), "min-at-2")
		b.ReportMetric(pts[3].Completion.Minutes(), "min-at-16")
		b.ReportMetric(pts[4].Completion.Minutes(), "min-at-32")
	}
}

// BenchmarkFigure5_Batching regenerates the batching surface: 100k tasks
// on 224 Midway workers over the 6×6 batch-size grid (paper best: Xtract
// batch 8, funcX batch 8–16).
func BenchmarkFigure5_Batching(b *testing.B) {
	grid := []int{1, 2, 4, 8, 16, 32}
	for i := 0; i < b.N; i++ {
		pts := experiments.Figure5(grid, grid, 100000, 224, 42)
		best := experiments.BestBatch(pts)
		b.ReportMetric(best.TasksPerSec, "best-tasks/s")
		b.ReportMetric(float64(best.XtractBatch), "best-xb")
		b.ReportMetric(float64(best.FuncXBatch), "best-fxb")
	}
}

// BenchmarkTable2_Offloading regenerates the RAND offloading comparison
// against the Tika baseline (paper: Xtract 1696/1560/1662 s, Tika
// 2032/1868/1935 s).
func BenchmarkTable2_Offloading(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table2(42)
		for _, r := range rows {
			name := r.System + "-" + itoa(r.Percent) + "pct-s"
			b.ReportMetric(r.Completion.Seconds(), name)
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [10]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkFigure6_PrefetchPipeline regenerates the prefetch pipeline:
// 200k MDF files from Petrel extracted on 4–32 Midway nodes.
func BenchmarkFigure6_PrefetchPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.Figure6([]int{4, 8, 16, 32}, 200000, 42)
		b.ReportMetric(pts[0].Completion.Seconds(), "s-at-4-nodes")
		b.ReportMetric(pts[3].Completion.Seconds(), "s-at-32-nodes")
		b.ReportMetric(pts[3].TransferTime.Seconds(), "transfer-s")
	}
}

// BenchmarkFigure7_MinTransfers regenerates the min-transfers evaluation
// (paper: transfer −24% on Midway2, −16% on Petrel, <1% crawl overhead).
func BenchmarkFigure7_MinTransfers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Figure7(42)
		for _, r := range rows {
			if r.Source == "midway2" {
				b.ReportMetric(r.TransferTime.Seconds(), r.Mode+"-s")
			}
			if r.Mode == "regular" && r.Source == "midway2" {
				b.ReportMetric(float64(r.RedundantFiles), "redundant-files")
			}
		}
	}
}

// BenchmarkFigure8_MDFCaseStudy regenerates the full-MDF run: 2.5M
// groups on 4096 Theta workers with the checkpointed restart (paper:
// 6.4 h walltime, 26,200 core-hours).
func BenchmarkFigure8_MDFCaseStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		run := experiments.Figure8(2500000, 4096, 19274*time.Second, 5*time.Minute, 42)
		b.ReportMetric(run.Walltime.Hours(), "walltime-h")
		b.ReportMetric(run.CoreHours, "core-hours")
		b.ReportMetric(run.CrawlTime.Minutes(), "crawl-min")
		b.ReportMetric(float64(run.ResubmittedTasks), "resubmitted")
	}
}

// BenchmarkTable3_GDriveCaseStudy regenerates the Google Drive case
// study: 4980 invocations on 30 River pods with 70 s cold starts.
func BenchmarkTable3_GDriveCaseStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Table3(42)
		b.ReportMetric(res.Completion.Minutes(), "completion-min")
		b.ReportMetric(res.PodHours, "pod-hours")
		b.ReportMetric(res.Rows[0].AvgExtract.Seconds(), "keyword-s")
	}
}

// BenchmarkTransferVsInSitu regenerates the §5.8.1 headline: in-situ
// extraction finishes in about half the time of just transferring the
// repository.
func BenchmarkTransferVsInSitu(b *testing.B) {
	for i := 0; i < b.N; i++ {
		extract, transfer := experiments.TransferVsInSitu(2500000, 4096, 42)
		b.ReportMetric(extract.Hours(), "extract-h")
		b.ReportMetric(transfer.Hours(), "transfer-h")
		b.ReportMetric(extract.Seconds()/transfer.Seconds(), "ratio")
	}
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblation_FamilySize sweeps the min-transfers family size
// bound s: larger families eliminate more redundant transfers but
// concentrate work on single workers (the straggler trade-off §4.3.1
// describes).
func BenchmarkAblation_FamilySize(b *testing.B) {
	var groups []family.Group
	rng := rand.New(rand.NewSource(9))
	for d := 0; d < 500; d++ {
		shared := pathFor(d, 0)
		for g := 1; g <= 6; g++ {
			groups = append(groups, family.Group{
				ID:    pathFor(d, g),
				Files: []string{shared, pathFor(d, g)},
			})
		}
	}
	for _, s := range []int{2, 4, 8, 16, 64} {
		b.Run("s="+itoa(s), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fams := family.MinTransfers(groups, s, rng)
				b.ReportMetric(float64(family.RedundantTransfers(fams)), "redundant")
				b.ReportMetric(float64(len(fams)), "families")
			}
		})
	}
}

func pathFor(d, g int) string {
	return "/d" + itoa(d+1) + "/f" + itoa(g+1)
}

// BenchmarkAblation_BatchingLevels isolates the two batching levels:
// neither, Xtract-only, funcX-only, and both (Figure 5's mechanism).
func BenchmarkAblation_BatchingLevels(b *testing.B) {
	cases := []struct {
		name    string
		xb, fxb int
	}{
		{"none", 1, 1},
		{"xtract-only", 8, 1},
		{"funcx-only", 1, 16},
		{"both", 8, 16},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pts := experiments.Figure5([]int{c.xb}, []int{c.fxb}, 50000, 224, 42)
				b.ReportMetric(pts[0].TasksPerSec, "tasks/s")
			}
		})
	}
}

// BenchmarkAblation_OffloadPolicies compares placement policies on the
// same workload: local-only, RAND 10%, ONB-max, and ONB-min.
func BenchmarkAblation_OffloadPolicies(b *testing.B) {
	policies := []scheduler.Policy{
		scheduler.LocalPolicy{},
		&scheduler.RandPolicy{Percent: 10, Rng: rand.New(rand.NewSource(4))},
		&scheduler.ONBPolicy{LimitBytes: 1 << 20, Mode: scheduler.ONBMax},
		&scheduler.ONBPolicy{LimitBytes: 1 << 20, Mode: scheduler.ONBMin},
	}
	for _, pol := range policies {
		b.Run(pol.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.ReportMetric(simulatePolicy(pol, 20000).Seconds(), "makespan-s")
			}
		})
	}
}

// simulatePolicy runs a placement-and-extract simulation under a policy:
// a busy home site and an idle alternate, with transfer costs for
// offloaded families.
func simulatePolicy(pol scheduler.Policy, n int) time.Duration {
	specs := dataset.MidwayFileSpecs(n, 11)
	s := sim.New()
	home := sim.NewStation(s, 56)
	alt := sim.NewStation(s, 10)
	link := sim.NewLinkBetween(s, "midway", "jetstream")
	var completion time.Duration
	finish := func() {
		if s.Now() > completion {
			completion = s.Now()
		}
	}
	for i, spec := range specs {
		fam := &family.Family{
			ID:       "f" + itoa(i+1),
			FileMeta: []family.FileMeta{{Path: "/f", Size: spec.Bytes}},
		}
		homeState := scheduler.SiteState{
			Name: "midway", HasCompute: true, Workers: 56, QueueDepth: home.QueueLen(),
		}
		altState := scheduler.SiteState{
			Name: "jetstream", HasCompute: true, Workers: 10, QueueDepth: alt.QueueLen(),
		}
		dur := spec.Duration
		if pol.Place(fam, homeState, []scheduler.SiteState{altState}) == "jetstream" {
			link.Send(spec.Bytes, func() { alt.Enqueue(dur, finish) })
		} else {
			home.Enqueue(dur, finish)
		}
	}
	s.Run()
	return completion
}

// BenchmarkAblation_ColdStarts quantifies the container warm pool: the
// same workload with 70 s cold starts versus pre-warmed containers.
func BenchmarkAblation_ColdStarts(b *testing.B) {
	for _, cold := range []time.Duration{0, 70 * time.Second} {
		name := "warm"
		if cold > 0 {
			name = "cold-70s"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				specs := dataset.MidwayFileSpecs(5000, 3)
				s := sim.New()
				p := sim.NewPipeline(s, sim.MidwayCosts(), 8, 16)
				ep := sim.NewEndpoint(s, "ep", 30, cold)
				get := p.Submit(specs, ep, "container", nil)
				s.Run()
				b.ReportMetric(get().Completion.Seconds(), "completion-s")
			}
		})
	}
}

// BenchmarkAblation_CheckpointRestart measures the cost of an allocation
// boundary: the same MDF workload with and without a forced restart.
func BenchmarkAblation_CheckpointRestart(b *testing.B) {
	cases := []struct {
		name  string
		limit time.Duration
	}{
		{"uninterrupted", 1 << 60},
		{"restart-at-3h", 3 * time.Hour},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				run := experiments.Figure8(500000, 1024, c.limit, 5*time.Minute, 42)
				b.ReportMetric(run.Walltime.Hours(), "walltime-h")
				b.ReportMetric(float64(run.ResubmittedTasks), "resubmitted")
			}
		})
	}
}

// BenchmarkAblation_KargerTrials sweeps the number of Karger min-cut
// trials per split: more trials find better cuts (fewer severed group
// memberships) at higher crawl-time cost.
func BenchmarkAblation_KargerTrials(b *testing.B) {
	var groups []family.Group
	for d := 0; d < 100; d++ {
		prefix := "/c" + itoa(d+1)
		for g := 0; g < 12; g++ {
			grp := family.Group{ID: prefix + "-g" + itoa(g+1)}
			for f := 0; f < 3; f++ {
				grp.Files = append(grp.Files, prefix+"/f"+itoa((g+f)%9+1))
			}
			groups = append(groups, grp)
		}
	}
	for _, trials := range []int{1, 4, 16} {
		b.Run("trials="+itoa(trials), func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			total := 0
			for i := 0; i < b.N; i++ {
				fams := family.MinTransfersN(groups, 6, trials, rng)
				total += family.RedundantTransfers(fams)
			}
			b.ReportMetric(float64(total)/float64(b.N), "redundant")
		})
	}
}

package experiments

import (
	"testing"
	"time"
)

// Shape tests: each experiment must reproduce the paper's qualitative
// result — who wins, by roughly what factor, where knees and crossovers
// fall — at reduced scale so the suite stays fast.

func TestTable1Shape(t *testing.T) {
	rows := Table1(0.02, 42)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	mdf := rows[0]
	if mdf.Name != "mdf" || mdf.Files != 19968947 {
		t.Fatalf("mdf = %+v", mdf)
	}
	if mdf.SizeTB < 30 || mdf.SizeTB > 130 {
		t.Fatalf("mdf size = %.1f TB, want ~61", mdf.SizeTB)
	}
	cdiac := rows[1]
	if cdiac.SizeTB < 0.1 || cdiac.SizeTB > 1.0 {
		t.Fatalf("cdiac size = %.2f TB, want ~0.33", cdiac.SizeTB)
	}
	// Ordering: MDF ≫ CDIAC ≫ individual.
	if !(rows[0].SizeTB > rows[1].SizeTB && rows[1].SizeTB > rows[2].SizeTB) {
		t.Fatal("size ordering violated")
	}
}

func TestFigure2StrongScalingShape(t *testing.T) {
	workers := []int{512, 1024, 2048, 4096, 8192}
	const n = 50000
	for _, ext := range []string{"imagesort", "matio"} {
		pts := Figure2Strong(ext, workers, n, 1)
		// Completion is non-increasing in workers.
		for i := 1; i < len(pts); i++ {
			if pts[i].Completion > pts[i-1].Completion+time.Second {
				t.Fatalf("%s: completion increased %v → %v at %d workers",
					ext, pts[i-1].Completion, pts[i].Completion, pts[i].Workers)
			}
		}
		// 512 → 1024 shows near-linear speedup (compute-bound region).
		ratio := pts[0].Completion.Seconds() / pts[1].Completion.Seconds()
		if ratio < 1.5 {
			t.Fatalf("%s: 512→1024 speedup = %.2f, want ~2", ext, ratio)
		}
		// A dispatch-bound plateau exists: 4096 → 8192 gains < 25%.
		plateau := pts[3].Completion.Seconds() / pts[4].Completion.Seconds()
		if plateau > 1.25 {
			t.Fatalf("%s: no plateau, 4096→8192 ratio %.2f", ext, plateau)
		}
	}
	// The long-duration extractor completes slower in absolute terms.
	is := Figure2Strong("imagesort", []int{2048}, n, 1)[0]
	mio := Figure2Strong("matio", []int{2048}, n, 1)[0]
	if mio.Completion < is.Completion {
		t.Fatal("matio should take longer than imagesort")
	}
}

func TestFigure2WeakScalingShape(t *testing.T) {
	workers := []int{512, 2048, 8192}
	for _, ext := range []string{"imagesort", "matio"} {
		pts := Figure2Weak(ext, workers, 24, 1)
		// Weak scaling holds to 2048 (within 50%), then degrades by 8192.
		if pts[1].Completion.Seconds() > pts[0].Completion.Seconds()*1.5 {
			t.Fatalf("%s: weak scaling broken at 2048: %v vs %v",
				ext, pts[1].Completion, pts[0].Completion)
		}
		if pts[2].Completion <= pts[1].Completion {
			t.Fatalf("%s: no dispatch degradation at 8192", ext)
		}
	}
}

func TestPeakThroughputBands(t *testing.T) {
	// Bands: within ~2× of the paper's 357.5 and 249.3 invocations/s,
	// with imagesort faster than matio.
	// Larger workloads amortize the long-task tail; 100k keeps the test
	// fast while staying within ~2× of the paper's full-scale numbers.
	is := PeakThroughput("imagesort", 100000, 1)
	mio := PeakThroughput("matio", 100000, 1)
	if is < 180 || is > 700 {
		t.Fatalf("imagesort peak = %.1f, want ~357", is)
	}
	if mio < 90 || mio > 400 {
		t.Fatalf("matio peak = %.1f, want ~249", mio)
	}
	if mio >= is {
		t.Fatal("matio throughput should be below imagesort")
	}
}

func TestFigure4Shape(t *testing.T) {
	pts := Figure4([]int{2, 16, 32})
	two, sixteen, thirtytwo := pts[0], pts[1], pts[2]
	if two.Completion < 40*time.Minute || two.Completion > 60*time.Minute {
		t.Fatalf("2 threads = %v, want ~50 min", two.Completion)
	}
	if sixteen.Completion < 20*time.Minute || sixteen.Completion > 30*time.Minute {
		t.Fatalf("16 threads = %v, want ~25 min", sixteen.Completion)
	}
	// Minimal benefit beyond 16 threads (network congestion).
	gain := (sixteen.Completion - thirtytwo.Completion).Seconds() / sixteen.Completion.Seconds()
	if gain > 0.10 {
		t.Fatalf("32 threads %.0f%% faster than 16; congestion missing", gain*100)
	}
	if len(two.Trace) == 0 {
		t.Fatal("no trace points")
	}
}

func TestFigure5Shape(t *testing.T) {
	xbs := []int{1, 8, 32}
	fxbs := []int{1, 16}
	pts := Figure5(xbs, fxbs, 20000, 224, 1)
	get := func(xb, fxb int) float64 {
		for _, p := range pts {
			if p.XtractBatch == xb && p.FuncXBatch == fxb {
				return p.TasksPerSec
			}
		}
		t.Fatalf("missing cell %d/%d", xb, fxb)
		return 0
	}
	// Unbatched is far slower than the sweet spot.
	if get(1, 1)*3 > get(8, 16) {
		t.Fatalf("batching gain too small: %0.1f vs %0.1f", get(1, 1), get(8, 16))
	}
	// Oversized Xtract batches hurt.
	if get(32, 16) >= get(8, 16) {
		t.Fatalf("no oversize penalty: xb32 %.1f >= xb8 %.1f", get(32, 16), get(8, 16))
	}
	best := BestBatch(pts)
	if best.XtractBatch == 1 || best.XtractBatch == 32 {
		t.Fatalf("best batch at extreme: %+v", best)
	}
}

func TestTable2Shape(t *testing.T) {
	rows := Table2(7)
	byKey := make(map[string]OffloadRow)
	for _, r := range rows {
		byKey[r.System+string(rune('0'+r.Percent/10))] = r
	}
	x0, x1, x2 := byKey["xtract0"], byKey["xtract1"], byKey["xtract2"]
	t0, t1 := byKey["tika0"], byKey["tika1"]
	// 10% offload beats both 0% and 20% (the equilibrium point).
	if x1.Completion >= x0.Completion {
		t.Fatalf("10%% (%v) not faster than 0%% (%v)", x1.Completion, x0.Completion)
	}
	if x1.Completion >= x2.Completion {
		t.Fatalf("10%% (%v) not faster than 20%% (%v)", x1.Completion, x2.Completion)
	}
	// Xtract beats Tika by roughly 20% at every offload level.
	speedup := t0.Completion.Seconds() / x0.Completion.Seconds()
	if speedup < 1.1 || speedup > 1.4 {
		t.Fatalf("tika/xtract ratio = %.2f, want ~1.2", speedup)
	}
	if t1.Completion <= x1.Completion {
		t.Fatal("tika 10% should be slower than xtract 10%")
	}
	// Transfer time grows with offload percentage.
	if !(x0.TransferTime == 0 && x1.TransferTime > 0 && x2.TransferTime > x1.TransferTime) {
		t.Fatalf("transfer times: %v %v %v", x0.TransferTime, x1.TransferTime, x2.TransferTime)
	}
}

func TestFigure6Shape(t *testing.T) {
	pts := Figure6([]int{4, 32}, 20000, 1)
	four, thirtytwo := pts[0], pts[1]
	// Transfer time is node-independent.
	diff := (four.TransferTime - thirtytwo.TransferTime).Seconds()
	if diff < -1 || diff > 1 {
		t.Fatalf("transfer differs across node counts: %v vs %v",
			four.TransferTime, thirtytwo.TransferTime)
	}
	// Few nodes: extraction dominates. Many nodes: completion approaches
	// the arrival rate (within 2× of transfer).
	if four.Completion < 3*four.TransferTime {
		t.Fatalf("4 nodes should be extraction-bound: %v vs transfer %v",
			four.Completion, four.TransferTime)
	}
	if thirtytwo.Completion > 2*thirtytwo.TransferTime {
		t.Fatalf("32 nodes should keep pace with arrival: %v vs transfer %v",
			thirtytwo.Completion, thirtytwo.TransferTime)
	}
	if four.CrawlTime > four.TransferTime {
		t.Fatal("crawl should be small relative to transfer")
	}
}

func TestFigure7Shape(t *testing.T) {
	rows := Figure7(3)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byKey := make(map[string]MinTransfersRow)
	for _, r := range rows {
		byKey[r.Source+"/"+r.Mode] = r
	}
	for _, src := range []string{"midway2", "petrel"} {
		min := byKey[src+"/min-transfers"]
		reg := byKey[src+"/regular"]
		// Min-transfers reduces transfer time by 10-35%.
		saving := 1 - min.TransferTime.Seconds()/reg.TransferTime.Seconds()
		if saving < 0.08 || saving > 0.40 {
			t.Fatalf("%s: transfer saving = %.0f%%, want 10-35%%", src, saving*100)
		}
		// Crawl overhead is tiny (<2% of the crawl).
		if min.AlgorithmTime.Seconds() > 0.02*min.CrawlTime.Seconds() {
			t.Fatalf("%s: min-transfers overhead %v too large vs crawl %v",
				src, min.AlgorithmTime, min.CrawlTime)
		}
		// Redundant files near the paper's 20,258.
		if reg.RedundantFiles < 15000 || reg.RedundantFiles > 25000 {
			t.Fatalf("%s: redundant files = %d", src, reg.RedundantFiles)
		}
		if min.RedundantFiles != 0 {
			t.Fatalf("%s: min-transfers left %d redundant", src, min.RedundantFiles)
		}
	}
	// Midway's slower link makes its transfers longer than Petrel's.
	if byKey["midway2/regular"].TransferTime <= byKey["petrel/regular"].TransferTime {
		t.Fatal("midway2 should be slower than petrel")
	}
}

func TestFigure8Shape(t *testing.T) {
	const groups = 250000
	run := Figure8(groups, 4096, 2000*time.Second, time.Minute, 5)
	if run.CrawlTime < 2*time.Minute || run.CrawlTime > 40*time.Minute {
		t.Fatalf("crawl = %v", run.CrawlTime)
	}
	if run.ResubmittedTasks == 0 {
		t.Fatal("allocation boundary produced no resubmissions")
	}
	if run.RestartAt != 2000*time.Second+time.Minute {
		t.Fatalf("restart at %v", run.RestartAt)
	}
	if run.Walltime <= run.RestartAt {
		t.Fatal("walltime should extend past the restart")
	}
	// Core-hours scale with the group count (≈ 37 core-s per group).
	wantCoreHours := float64(groups) * 37 / 3600
	if run.CoreHours < wantCoreHours/2 || run.CoreHours > wantCoreHours*2 {
		t.Fatalf("core-hours = %.0f, want ~%.0f", run.CoreHours, wantCoreHours)
	}
	if len(run.ThroughputTrace) == 0 || len(run.Cumulative) == 0 || len(run.Families) == 0 {
		t.Fatal("missing traces")
	}
	// The cumulative curve is non-decreasing.
	for i := 1; i < len(run.Cumulative); i++ {
		if run.Cumulative[i].Value < run.Cumulative[i-1].Value {
			t.Fatal("cumulative curve decreased")
		}
	}
	// Long-task-first submission: some sampled family runs multiple hours.
	longest := time.Duration(0)
	for _, f := range run.Families {
		if f.Duration > longest {
			longest = f.Duration
		}
	}
	if longest < time.Hour {
		t.Fatalf("longest sampled family = %v, expected multi-hour ASE", longest)
	}
}

func TestTransferVsInSituHeadline(t *testing.T) {
	// Enough groups that the multi-hour ASE straggler floor does not
	// dominate the makespan (at small scale walltime ≈ longest task).
	extract, transfer := TransferVsInSitu(1500000, 4096, 5)
	ratio := extract.Seconds() / transfer.Seconds()
	// The paper's headline: extraction ≈ 50% of transfer-only time.
	if ratio < 0.25 || ratio > 0.75 {
		t.Fatalf("extract/transfer ratio = %.2f, want ~0.5", ratio)
	}
}

func TestTable3Shape(t *testing.T) {
	res := Table3(5)
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	total := 0
	byName := make(map[string]GDriveRow)
	for _, r := range res.Rows {
		total += r.Invocations
		byName[r.Extractor] = r
	}
	if total != 4980 {
		t.Fatalf("invocations = %d, want 4980", total)
	}
	kw := byName["keyword"]
	if kw.Invocations != 3539 {
		t.Fatalf("keyword invocations = %d", kw.Invocations)
	}
	if kw.AvgExtract < 1500*time.Millisecond || kw.AvgExtract > 4500*time.Millisecond {
		t.Fatalf("keyword avg extract = %v, want ~2.76s", kw.AvgExtract)
	}
	// Tabular is the fastest extractor, as in the paper.
	if byName["tabular"].AvgExtract >= byName["keyword"].AvgExtract {
		t.Fatal("tabular should be faster than keyword")
	}
	if res.Completion < 8*time.Minute || res.Completion > 60*time.Minute {
		t.Fatalf("completion = %v, want tens of minutes", res.Completion)
	}
	if res.ColdStarts == 0 {
		t.Fatal("no cold starts recorded")
	}
	if res.PodHours <= 0 {
		t.Fatalf("pod-hours = %v", res.PodHours)
	}
}

func TestFigure3Shape(t *testing.T) {
	rows := Figure3()
	byName := make(map[string]LatencyRow)
	for _, r := range rows {
		byName[r.Component] = r
		if r.Mean <= 0 {
			t.Fatalf("component %q has non-positive latency", r.Component)
		}
	}
	ke := byName["keyword extraction (t_ke)"]
	gh := byName["Globus HTTPS fetch (t_gh)"]
	gd := byName["Google Drive fetch (t_gd)"]
	// The paper's observation: fetching generally costs more than
	// extraction (t_gh, t_gd > t_ex).
	if gh.Mean <= ke.Mean || gd.Mean <= ke.Mean {
		t.Fatalf("fetch (%v, %v) should exceed extraction (%v)", gh.Mean, gd.Mean, ke.Mean)
	}
	if !ke.Measured {
		t.Fatal("extraction leg should be measured live")
	}
	// Grouping/min-transfers is comparatively trivial (<20 ms per paper).
	if byName["crawler: grouping + min-transfers"].Mean > 100*time.Millisecond {
		t.Fatal("min-transfers overhead unexpectedly large")
	}
}

func TestBestBatchHelper(t *testing.T) {
	pts := []BatchPoint{{1, 1, 10}, {8, 16, 99}, {32, 32, 50}}
	if best := BestBatch(pts); best.TasksPerSec != 99 {
		t.Fatalf("best = %+v", best)
	}
}

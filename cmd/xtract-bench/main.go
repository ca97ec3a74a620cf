// Command xtract-bench regenerates every table and figure of the paper's
// evaluation from this repository's implementation and prints the rows in
// the paper's format. Run all experiments or a subset:
//
//	xtract-bench                 # everything
//	xtract-bench -only fig2,tab2 # a subset
//	xtract-bench -quick          # reduced workload sizes for smoke runs
//
// The live system's benchmark is bench/ (see its README). This command
// keeps the one live scenario bench/ has no workload for, hedging against
// stragglers (-only tail), whose floor BENCH_TAIL.json records. Profiling
// it (see README "Profiling the benchmarks"):
//
//	xtract-bench -only tail -cpuprofile cpu.out -memprofile mem.out
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"xtract/internal/experiments"
)

// options are the flags a scenario reads.
type options struct {
	quick     bool
	seed      int64
	benchJSON string
}

// scenarios maps each -only key to what it prints, in the order a full
// run prints them.
var scenarios = []struct {
	key string
	run func(options)
}{
	{"tab1", table1},
	{"fig2", figure2},
	{"fig3", figure3},
	{"fig4", figure4},
	{"fig5", figure5},
	{"tab2", table2},
	{"fig6", figure6},
	{"fig7", figure7},
	{"fig8", figure8},
	{"tab3", table3},
	{"headline", headline},
	{"tail", tailLatency},
}

func main() {
	keys := make([]string, len(scenarios))
	for i, s := range scenarios {
		keys[i] = s.key
	}
	var o options
	flag.BoolVar(&o.quick, "quick", false, "run reduced workload sizes")
	only := flag.String("only", "", "comma-separated subset: "+strings.Join(keys, ","))
	flag.Int64Var(&o.seed, "seed", 42, "random seed")
	flag.StringVar(&o.benchJSON, "benchjson", "", "write the tail benchmark's result as JSON to this file")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected runs to this file")
	memProfile := flag.String("memprofile", "", "write an allocation profile (after the selected runs) to this file")
	flag.StringVar(&csvDir, "csv", "", "also write each figure's data series as CSV into this directory")
	flag.Parse()

	want := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			want[strings.TrimSpace(k)] = true
		}
	}
	all := len(want) == 0
	var selected []func(options)
	for _, s := range scenarios {
		if all || want[s.key] {
			selected = append(selected, s.run)
			delete(want, s.key)
		}
	}
	for k := range want {
		fmt.Printf("unknown scenario %q (have %s)\n", k, strings.Join(keys, ","))
		os.Exit(2)
	}

	stop := startProfiles(*cpuProfile, *memProfile)
	for _, run := range selected {
		run(o)
	}
	stop()
}

// startProfiles starts the CPU profile, when cpuPath is set, and returns
// the function that stops it and writes the allocation profile to memPath,
// when that is set. The scenarios leave through os.Exit only on failure,
// so stop runs after every successful selection.
func startProfiles(cpuPath, memPath string) (stop func()) {
	var cpu *os.File
	if cpuPath != "" {
		var err error
		if cpu, err = os.Create(cpuPath); err == nil {
			err = pprof.StartCPUProfile(cpu)
		}
		if err != nil {
			fmt.Printf("cpuprofile: %v\n", err)
			os.Exit(1)
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			_ = cpu.Close()
		}
		if memPath == "" {
			return
		}
		f, err := os.Create(memPath)
		if err == nil {
			runtime.GC()
			err = pprof.Lookup("allocs").WriteTo(f, 0)
			_ = f.Close()
		}
		if err != nil {
			fmt.Printf("memprofile: %v\n", err)
			os.Exit(1)
		}
	}
}

func tailLatency(o options) {
	header("Tail latency: hedged speculative execution off vs on")
	jobs, filesPerJob := 60, 20
	if o.quick {
		jobs = 25
	}
	res, err := experiments.TailLatency(jobs, filesPerJob, o.seed)
	if err != nil {
		fmt.Printf("tail experiment failed: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("jobs: %d × %d files  straggler: %.0f%% of executions sleep %.0f ms (base %.1f ms)\n",
		res.Jobs, res.FilesPerJob, res.StragglerProb*100,
		float64(res.StragglerSleep)/float64(time.Millisecond),
		float64(res.BaseSleep)/float64(time.Millisecond))
	fmt.Printf("hedging off: p50 %7.1f ms  p99 %7.1f ms\n",
		float64(res.UnhedgedP50)/float64(time.Millisecond),
		float64(res.UnhedgedP99)/float64(time.Millisecond))
	fmt.Printf("hedging on:  p50 %7.1f ms  p99 %7.1f ms   p99 speedup: %.2fx\n",
		float64(res.HedgedP50)/float64(time.Millisecond),
		float64(res.HedgedP99)/float64(time.Millisecond), res.P99Speedup)
	fmt.Printf("duplicate work: %d hedges / %d steps (ratio %.4f), %d hedge wins, %d fenced duplicates\n",
		res.StepsHedged, res.StepsProcessed, res.DuplicateWorkRatio,
		res.HedgeWins, res.DuplicateSteps)
	writeCSV("tail_latency",
		[]string{"jobs", "files_per_job", "unhedged_p50_ms", "unhedged_p99_ms", "hedged_p50_ms", "hedged_p99_ms", "p99_speedup", "steps_processed", "steps_hedged", "duplicate_work_ratio"},
		[][]string{{d(res.Jobs), d(res.FilesPerJob),
			f(float64(res.UnhedgedP50) / float64(time.Millisecond)),
			f(float64(res.UnhedgedP99) / float64(time.Millisecond)),
			f(float64(res.HedgedP50) / float64(time.Millisecond)),
			f(float64(res.HedgedP99) / float64(time.Millisecond)),
			f(res.P99Speedup), d(int(res.StepsProcessed)), d(int(res.StepsHedged)),
			f(res.DuplicateWorkRatio)}})
	if o.benchJSON != "" {
		data, err := json.MarshalIndent(res, "", "  ")
		if err == nil {
			err = os.WriteFile(o.benchJSON, data, 0o644)
		}
		if err != nil {
			fmt.Printf("benchjson write failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", o.benchJSON)
	}
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

func table1(o options) {
	header("Table 1: repository characteristics")
	scale := 1.0
	if o.quick {
		scale = 0.01
	}
	fmt.Printf("%-12s %10s %12s %8s\n", "Repository", "Size (TB)", "Files", "Exts")
	var rows [][]string
	for _, s := range experiments.Table1(scale, o.seed) {
		fmt.Printf("%-12s %10.3f %12d %8d\n", s.Name, s.SizeTB, s.Files, s.UniqueExtensions)
		rows = append(rows, []string{s.Name, f(s.SizeTB), fmt.Sprint(s.Files), d(s.UniqueExtensions)})
	}
	writeCSV("table1", []string{"repository", "size_tb", "files", "unique_extensions"}, rows)
	fmt.Println("paper:       61 / 19,968,947 / 11,560 · 0.33 / 500,001 / 152 · 0.005 / 4,443 / 71")
}

func figure2(o options) {
	header("Figure 2(a): strong scaling (200k invocations on Theta)")
	n := 200000
	if o.quick {
		n = 20000
	}
	workers := []int{512, 1024, 2048, 4096, 8192}
	var f2a [][]string
	for _, ext := range []string{"imagesort", "matio"} {
		fmt.Printf("%-10s", ext)
		for _, pt := range experiments.Figure2Strong(ext, workers, n, o.seed) {
			fmt.Printf("  %5d:%8.0fs", pt.Workers, pt.Completion.Seconds())
			f2a = append(f2a, []string{ext, d(pt.Workers), f(pt.Completion.Seconds())})
		}
		fmt.Println()
	}
	writeCSV("figure2a_strong_scaling", []string{"extractor", "workers", "completion_s"}, f2a)
	header("Figure 2(b): weak scaling (24 invocations per worker)")
	var f2b [][]string
	for _, ext := range []string{"imagesort", "matio"} {
		fmt.Printf("%-10s", ext)
		for _, pt := range experiments.Figure2Weak(ext, workers, 24, o.seed) {
			fmt.Printf("  %5d:%8.0fs", pt.Workers, pt.Completion.Seconds())
			f2b = append(f2b, []string{ext, d(pt.Workers), f(pt.Completion.Seconds())})
		}
		fmt.Println()
	}
	writeCSV("figure2b_weak_scaling", []string{"extractor", "workers", "completion_s"}, f2b)
	header("§5.2.3: peak extraction throughput")
	fmt.Printf("imagesort: %.1f invocations/s (paper: 357.5)\n",
		experiments.PeakThroughput("imagesort", n, o.seed))
	fmt.Printf("matio:     %.1f invocations/s (paper: 249.3)\n",
		experiments.PeakThroughput("matio", n, o.seed))
}

func figure3(options) {
	header("Figure 3: latency breakdown (single unbatched keyword task)")
	for _, row := range experiments.Figure3() {
		src := "calibrated"
		if row.Measured {
			src = "measured"
		}
		fmt.Printf("%-42s %10.1f ms  (%s)\n", row.Component,
			float64(row.Mean.Microseconds())/1000, src)
	}
}

func figure4(options) {
	header("Figure 4: crawl parallelization (2.3M MDF files)")
	var f4 [][]string
	for _, pt := range experiments.Figure4([]int{2, 4, 8, 16, 32}) {
		fmt.Printf("threads %2d: %6.1f min\n", pt.Threads, pt.Completion.Minutes())
		for _, tp := range pt.Trace {
			f4 = append(f4, []string{d(pt.Threads), f(tp.At.Seconds()), f(tp.Value)})
		}
	}
	writeCSV("figure4_crawl_trace", []string{"threads", "time_s", "families_crawled"}, f4)
	fmt.Println("paper: ~50 min at 2 threads, ~25 min at 16-32 (NIC-congested)")
}

func figure5(o options) {
	header("Figure 5: batching surface (100k tasks, 224 Midway workers)")
	n := 100000
	if o.quick {
		n = 10000
	}
	xbs := []int{1, 2, 4, 8, 16, 32}
	fxbs := []int{1, 2, 4, 8, 16, 32}
	points := experiments.Figure5(xbs, fxbs, n, 224, o.seed)
	fmt.Printf("%8s", "fxb\\xb")
	for _, xb := range xbs {
		fmt.Printf("%8d", xb)
	}
	fmt.Println()
	i := 0
	for _, fxb := range fxbs {
		fmt.Printf("%8d", fxb)
		for range xbs {
			fmt.Printf("%8.1f", points[i].TasksPerSec)
			i++
		}
		fmt.Println()
	}
	var f5 [][]string
	for _, p := range points {
		f5 = append(f5, []string{d(p.XtractBatch), d(p.FuncXBatch), f(p.TasksPerSec)})
	}
	writeCSV("figure5_batching", []string{"xtract_batch", "funcx_batch", "tasks_per_sec"}, f5)
	best := experiments.BestBatch(points)
	fmt.Printf("best: xtract batch %d, funcX batch %d → %.1f tasks/s (paper: 8 / 8-16)\n",
		best.XtractBatch, best.FuncXBatch, best.TasksPerSec)
}

func table2(o options) {
	header("Table 2: RAND offloading, Midway(56w) → Jetstream(10w), 100k files")
	fmt.Printf("%-8s %10s %14s %16s\n", "System", "Offload %", "Transfer (s)", "Completion (s)")
	var t2 [][]string
	for _, row := range experiments.Table2(o.seed) {
		fmt.Printf("%-8s %10d %14.0f %16.0f\n",
			row.System, row.Percent, row.TransferTime.Seconds(), row.Completion.Seconds())
		t2 = append(t2, []string{row.System, d(row.Percent),
			f(row.TransferTime.Seconds()), f(row.Completion.Seconds())})
	}
	writeCSV("table2_offloading", []string{"system", "offload_pct", "transfer_s", "completion_s"}, t2)
	fmt.Println("paper: xtract 1696/1560/1662 · tika 2032/1868/1935 (transfer 0/374/655)")
}

func figure6(o options) {
	header("Figure 6: prefetch pipeline, Petrel → Midway (200k MDF files)")
	n := 200000
	if o.quick {
		n = 20000
	}
	var f6 [][]string
	for _, pt := range experiments.Figure6([]int{4, 8, 16, 32}, n, o.seed) {
		fmt.Printf("%2d nodes (%4d workers): crawl %5.0fs  transfer %6.0fs  completion %6.0fs\n",
			pt.Nodes, pt.Workers, pt.CrawlTime.Seconds(), pt.TransferTime.Seconds(),
			pt.Completion.Seconds())
		f6 = append(f6, []string{d(pt.Nodes), d(pt.Workers), f(pt.CrawlTime.Seconds()),
			f(pt.TransferTime.Seconds()), f(pt.Completion.Seconds())})
	}
	writeCSV("figure6_prefetch", []string{"nodes", "workers", "crawl_s", "transfer_s", "completion_s"}, f6)
	fmt.Println("paper shape: transfer dominates; at 32 nodes extraction keeps pace with arrival")
}

func figure7(o options) {
	header("Figure 7: min-transfers vs regular (100k files → Jetstream)")
	fmt.Printf("%-9s %-14s %10s %12s %12s %10s\n",
		"Source", "Mode", "Crawl (s)", "Transfer (s)", "Redundant", "Total GB")
	var f7 [][]string
	for _, row := range experiments.Figure7(o.seed) {
		fmt.Printf("%-9s %-14s %10.0f %12.0f %12d %10.1f\n",
			row.Source, row.Mode, row.CrawlTime.Seconds(), row.TransferTime.Seconds(),
			row.RedundantFiles, row.TotalGB)
		f7 = append(f7, []string{row.Source, row.Mode, f(row.CrawlTime.Seconds()),
			f(row.TransferTime.Seconds()), d(row.RedundantFiles), f(row.TotalGB)})
	}
	writeCSV("figure7_min_transfers", []string{"source", "mode", "crawl_s", "transfer_s", "redundant_files", "total_gb"}, f7)
	fmt.Println("paper: midway2 8291→6290s (-24%), petrel 2464→2060s (-16%); 20,258 redundant files (32 GB)")
}

func figure8(o options) {
	header("Figure 8: full MDF case study (Theta, 4096 workers)")
	groups := 2500000
	if o.quick {
		groups = 250000
	}
	run := experiments.Figure8(groups, 4096, 19274*time.Second, 5*time.Minute, o.seed)
	fmt.Printf("groups: %d  crawl: %.1f min  walltime: %.2f h  core-hours: %.0f\n",
		run.Groups, run.CrawlTime.Minutes(), run.Walltime.Hours(), run.CoreHours)
	fmt.Printf("allocation restart at %.0f s; %d tasks resubmitted\n",
		run.RestartAt.Seconds(), run.ResubmittedTasks)
	fmt.Println("throughput trace (groups/s per 10 min bucket):")
	var f8 [][]string
	for i, pt := range run.ThroughputTrace {
		if i%3 == 0 {
			fmt.Printf("  t=%6.0fs  %8.1f/s\n", pt.At.Seconds(), pt.Value)
		}
		f8 = append(f8, []string{f(pt.At.Seconds()), f(pt.Value)})
	}
	writeCSV("figure8_throughput", []string{"time_s", "groups_per_sec"}, f8)
	var f8c [][]string
	for _, pt := range run.Cumulative {
		f8c = append(f8c, []string{f(pt.At.Seconds()), f(pt.Value)})
	}
	writeCSV("figure8_cumulative", []string{"time_s", "groups_done"}, f8c)
	var f8f [][]string
	for _, fam := range run.Families {
		f8f = append(f8f, []string{f(fam.Start.Seconds()), f(fam.Duration.Seconds()), fam.Extractor})
	}
	writeCSV("figure8_families", []string{"start_s", "duration_s", "longest_extractor"}, f8f)
	fmt.Println("paper: crawl 26.3 min, 6.4 h walltime, 26,200 core-hours, restart at 19,274 s")
}

func table3(o options) {
	header("Table 3: Google Drive case study (4443 files, 30 River pods)")
	res := experiments.Table3(o.seed)
	fmt.Printf("%-14s %12s %14s %14s %10s\n",
		"Extractor", "Invocations", "Extract (s)", "Transfer (s)", "Size (MB)")
	var t3 [][]string
	for _, row := range res.Rows {
		fmt.Printf("%-14s %12d %14.2f %14.2f %10.3f\n",
			row.Extractor, row.Invocations, row.AvgExtract.Seconds(),
			row.AvgTransfer.Seconds(), row.AvgMB)
		t3 = append(t3, []string{row.Extractor, d(row.Invocations),
			f(row.AvgExtract.Seconds()), f(row.AvgTransfer.Seconds()), f(row.AvgMB)})
	}
	writeCSV("table3_gdrive", []string{"extractor", "invocations", "avg_extract_s", "avg_transfer_s", "avg_mb"}, t3)
	fmt.Printf("completion: %.1f min  pod-hours: %.1f  cold starts: %d\n",
		res.Completion.Minutes(), res.PodHours, res.ColdStarts)
	fmt.Println("paper: 35 min, ~23 pod-hours, ~70 s cold start per container")
}

func headline(o options) {
	header("§5.8.1 headline: in-situ extraction vs transfer-only")
	groups := 2500000
	if o.quick {
		groups = 250000
	}
	extract, transfer := experiments.TransferVsInSitu(groups, 4096, o.seed)
	fmt.Printf("extract in place: %.2f h   transfer 61 TB to Theta: %.2f h   ratio: %.2f\n",
		extract.Hours(), transfer.Hours(), extract.Hours()/transfer.Hours())
	fmt.Println("paper: extraction 6.4 h vs transfer 13.3 h → repository processed in ~50% of transfer time")
	if o.quick {
		fmt.Println("(quick mode scales the transfer with the reduced group count)")
	}
}

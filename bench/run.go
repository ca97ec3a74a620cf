package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// result is what one run of one workload reports.
type result struct {
	Workload  string             `json:"workload"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Jobs      int                `json:"jobs"`
	Digest    string             `json:"digest"`
	Problems  []string           `json:"problems,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	// JobMS is every measured job's time in completion order, kept in the
	// result file for looking at a run's shape; no metric reads it back.
	JobMS    []float64 `json:"job_ms,omitempty"`
	JobCPUUS []float64 `json:"job_cpu_us_per_step,omitempty"`
}

// setupRepeats is how many times an untraced run sets the system up:
// one deployment is a single sample of set-up time, and the driver
// compares set-up time across commits, so the run reports the median of
// several and keeps the last for measuring.
const setupRepeats = 3

// oracle checks jobs against each other: every job over the same input
// must have produced the same documents, whichever run or pass it
// belonged to, cold or answered from the cache.
type oracle struct {
	want              map[string]uint64
	attempted, failed int64
	jobs              int
	problems          []string
}

func newOracle() *oracle { return &oracle{want: make(map[string]uint64)} }

func (o *oracle) add(samples []jobSample) {
	for i := range samples {
		s := &samples[i]
		o.jobs++
		o.attempted += s.attempted
		o.failed += s.failed
		if s.err != "" && len(o.problems) < 5 {
			o.problems = append(o.problems, s.err)
		}
		if s.failed > 0 {
			continue
		}
		if ref, ok := o.want[s.key]; !ok {
			o.want[s.key] = s.digest
		} else if ref != s.digest {
			o.failed += s.docs
			if len(o.problems) < 5 {
				o.problems = append(o.problems, fmt.Sprintf("documents over %s differ between jobs (%016x vs %016x)", s.key, s.digest, ref))
			}
		}
	}
}

// fail records a violated workload assertion.
func (o *oracle) fail(format string, args ...interface{}) {
	o.failed++
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// digest folds the per-input digests into one value for the run: the
// same seed must give the same value on every run.
func (o *oracle) digest() string {
	keys := make([]string, 0, len(o.want))
	for k := range o.want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sum uint64 = 14695981039346656037
	for _, k := range keys {
		for _, b := range []byte(k) {
			sum = (sum ^ uint64(b)) * 1099511628211
		}
		sum = (sum ^ o.want[k]) * 1099511628211
	}
	return fmt.Sprintf("%016x", sum)
}

func (o *oracle) result(name string, metrics map[string]float64) result {
	return result{
		Workload: name, Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed,
		Jobs: o.jobs, Digest: o.digest(), Problems: o.problems, Metrics: metrics,
	}
}

// setUp generates the workload's inputs, deploys the system over them
// and runs the warm-up jobs.
func setUp(w workload, seed int64, scale float64, tr *tracer, o *oracle) (*env, error) {
	p, err := w.build(seed, scale)
	if err != nil {
		return nil, fmt.Errorf("%s: generate inputs: %w", w.name, err)
	}
	e, err := newEnv(p, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	o.add(e.warmup())
	return e, nil
}

// checkWarm holds a warm window to its contract: every step a cache hit
// and not one FaaS task submitted.
func checkWarm(o *oracle, win *window) {
	steps := total(win.samples, func(s *jobSample) int64 { return s.steps })
	hits := total(win.samples, func(s *jobSample) int64 { return s.cacheHits })
	if hits != steps {
		o.fail("warm run: %d cache hits for %d steps", hits, steps)
	}
	if n := promDelta(win.before, win.after, "xtract_faas_tasks_submitted_total", ""); n != 0 {
		o.fail("warm run: %v FaaS tasks submitted", n)
	}
}

// runUntraced measures the end-to-end metrics: no decorator is in the
// system's path except the destination store's write counter and the
// modelled journal device.
func runUntraced(w workload, seed int64, d time.Duration, scale float64, log io.Writer) (result, error) {
	o := newOracle()
	var e *env
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if e != nil {
			e.close()
			e = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if e, err = setUp(w, seed, scale, nil, o); err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.close()

	win := e.measure(d)
	o.add(win.samples)
	if e.plan.warm {
		checkWarm(o, win)
	}
	m := endToEndMetrics(win)
	m["setup_s"] = median(setups)
	m["peak_rss_mb"] = peakRSSMB()
	fmt.Fprintf(log, "# %s: %d jobs in %.2fs (%d clients), set-ups %.3fs\n", w.name,
		len(win.samples), float64(win.wallNS)/1e9, e.plan.clients, setups)
	res := o.result(w.name, m)
	res.JobMS = pick(win.samples, func(s *jobSample) float64 { return float64(s.jobNS) / 1e6 })
	res.JobCPUUS = pick(win.samples, func(s *jobSample) float64 { return ratio(float64(s.cpuNS)/1e3, float64(s.steps)) })
	return res, nil
}

// endToEndMetrics derives the user-visible numbers of one window.
//
// The sandbox this runs in slows down in bursts, and only ever slows
// down, so the two rate metrics are taken over the best quarter of the
// window's slices (a job each with one client, half a second each with
// several): steps_per_s over the quarter with the highest rate,
// cpu_us_per_step over the quarter that cost the least. That estimates
// the undisturbed system, and its run-to-run spread was half that of the
// whole-window mean while sizing the benchmark. job_p50_ms is the plain
// median and allocs_per_step the plain total: neither needs the help.
func endToEndMetrics(win *window) map[string]float64 {
	steps := float64(total(win.samples, func(s *jobSample) int64 { return s.steps }))
	jobMS := pick(win.samples, func(s *jobSample) float64 { return float64(s.jobNS) / 1e6 })
	return map[string]float64{
		"steps_per_s":     bestQuarter(win.slices, func(s slice) (float64, float64) { return float64(s.steps), float64(s.ns) / 1e9 }, true),
		"job_p50_ms":      median(jobMS),
		"cpu_us_per_step": bestQuarter(win.slices, func(s slice) (float64, float64) { return float64(s.cpuNS) / 1e3, float64(s.steps) }, false),
		"allocs_per_step": ratio(float64(win.meter.mallocs), steps),
	}
}

// bestQuarter returns Σnum/Σden over the quarter of slices (at least
// one) whose own num/den is highest, or lowest.
func bestQuarter(slices []slice, f func(slice) (num, den float64), highest bool) float64 {
	type frac struct{ num, den float64 }
	fr := make([]frac, 0, len(slices))
	for _, s := range slices {
		if num, den := f(s); den > 0 {
			fr = append(fr, frac{num, den})
		}
	}
	sort.Slice(fr, func(i, j int) bool {
		a, b := fr[i].num/fr[i].den, fr[j].num/fr[j].den
		if highest {
			return a > b
		}
		return a < b
	})
	var num, den float64
	for _, x := range fr[:(len(fr)+3)/4] {
		num += x.num
		den += x.den
	}
	return ratio(num, den)
}

// runTraced measures the per-layer metrics. The system is set up once
// with every decorator in place; the measured time is split into an
// untraced window (decorators idle), a traced window (spans recorded)
// and an untraced window at GOMAXPROCS 1, and the layer replays follow.
func runTraced(w workload, seed int64, d time.Duration, scale float64, outDir string, log io.Writer) (result, error) {
	o := newOracle()
	tr := &tracer{}
	e, err := setUp(w, seed, scale, tr, o)
	if err != nil {
		return result{}, err
	}
	defer e.close()

	plain := e.measure(d * 3 / 10)
	tr.enable(true)
	traced := e.measure(d * 4 / 10)
	tr.enable(false)
	procs := runtime.GOMAXPROCS(1)
	single := e.measure(d * 3 / 10)
	runtime.GOMAXPROCS(procs)
	for _, win := range []*window{plain, traced, single} {
		o.add(win.samples)
		if e.plan.warm {
			checkWarm(o, win)
		}
	}

	spans := tr.collect()
	rows := budget(spans)
	printBudget(log, w.name, rows)
	if outDir != "" {
		path := filepath.Join(outDir, "trace-"+w.name+".jsonl")
		if err := writeSpans(path, spans); err != nil {
			return result{}, fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(log, "# %d spans recorded, trace in %s\n", len(spans), path)
	}

	m := layerMetrics(plain, traced, single, rows)
	if err := replayLayers(e, m); err != nil {
		return result{}, fmt.Errorf("%s: layer replay: %w", w.name, err)
	}
	residual(m, traced)
	return o.result(w.name, m), nil
}

// layerMetrics derives the B and C metrics from the three windows of a
// traced run and the span budget.
func layerMetrics(plain, traced, single *window, rows [nLayers]layerBudget) map[string]float64 {
	m := make(map[string]float64)
	b, a := traced.before, traced.after
	s := traced.samples
	jobs := float64(len(s))
	steps := float64(total(s, func(s *jobSample) int64 { return s.steps }))
	families := float64(total(s, func(s *jobSample) int64 { return s.families }))
	wall := float64(traced.wallNS)

	subUS := pick(s, func(s *jobSample) float64 { return float64(s.submitNS) / 1e3 })
	m["api.submit_us_p50"] = median(subUS)
	m["api.submit_us_p99"] = quantile(subUS, 0.99)
	m["api.status_us_p50"] = median(pick(s, func(s *jobSample) float64 {
		return ratio(float64(s.statusNS)/1e3, float64(s.statusCalls))
	}))
	m["api.status_calls_per_job"] = ratio(float64(total(s, func(s *jobSample) int64 { return int64(s.statusCalls) })), jobs)
	m["api.job_ms_p99"] = quantile(pick(s, func(s *jobSample) float64 { return float64(s.jobNS) / 1e6 }), 0.99)
	m["api.jobs_per_s"] = ratio(jobs, float64(traced.busyNS)/1e9)

	m["tenant.throttled_total"] = float64(a.throttled - b.throttled)
	m["crawler.list_calls_per_kfamily"] = ratio(1000*float64(a.srcListCalls-b.srcListCalls), families)
	m["queue.sent_per_step"] = ratio(float64(a.queueSent-b.queueSent), steps)

	m["core.pump_wakeups_per_kstep"] = ratio(1000*float64(total(s, func(s *jobSample) int64 { return s.wakeups })), steps)
	m["core.idle_wakeups_per_kstep"] = ratio(1000*float64(total(s, func(s *jobSample) int64 { return s.idleWakeups })), steps)
	m["core.dispatch_latency_ms_mean"] = 1e3 * ratio(
		promDelta(b, a, "xtract_dispatch_latency_seconds_sum", ""),
		promDelta(b, a, "xtract_dispatch_latency_seconds_count", ""))
	plainRate := endToEndMetrics(plain)["steps_per_s"]
	m["core.procs_speedup"] = ratio(plainRate, endToEndMetrics(single)["steps_per_s"])
	m["core.cores_busy"] = ratio(float64(plain.meter.cpuNS), float64(plain.busyNS))

	tasks := promDelta(b, a, "xtract_faas_tasks_submitted_total", "")
	m["faas.tasks_per_step"] = ratio(tasks, steps)
	m["faas.task_latency_ms_mean"] = 1e3 * ratio(
		promDelta(b, a, "xtract_faas_task_latency_seconds_sum", ""),
		promDelta(b, a, "xtract_faas_task_latency_seconds_count", ""))

	m["transfer.jobs_per_kfamily"] = ratio(1000*promDelta(b, a, "xtract_transfer_jobs_total", ""), families)
	m["transfer.bytes_staged_per_step"] = ratio(float64(total(s, func(s *jobSample) int64 { return s.bytesStaged })), steps)
	m["transfer.duration_ms_mean"] = 1e3 * ratio(
		promDelta(b, a, "xtract_transfer_duration_seconds_sum", ""),
		promDelta(b, a, "xtract_transfer_duration_seconds_count", ""))

	m["extractors.us_per_step"] = ratio(float64(a.extNS-b.extNS)/1e3, steps)
	m["extractors.calls_per_step"] = ratio(float64(a.extCalls-b.extCalls), steps)
	m["store.src_read_bytes_per_step"] = ratio(float64(a.srcReadBytes-b.srcReadBytes), steps)
	m["store.src_list_us_per_call"] = ratio(float64(a.srcListNS-b.srcListNS)/1e3, float64(a.srcListCalls-b.srcListCalls))
	m["store.src_busy_frac"] = ratio(float64(a.srcBusyNS-b.srcBusyNS), wall)

	hits, misses := float64(a.cache.Hits-b.cache.Hits), float64(a.cache.Misses-b.cache.Misses)
	m["cache.hit_ratio"] = ratio(hits, hits+misses)
	m["cache.evictions_per_kstep"] = ratio(1000*float64(a.cache.Evictions-b.cache.Evictions), steps)

	docs := float64(a.destWrites - b.destWrites)
	m["validate.us_per_doc"] = ratio(float64(a.valNS-b.valNS)/1e3, float64(a.valCalls-b.valCalls))
	m["validate.lag_ms_p50"] = median(pick(s, func(s *jobSample) float64 { return float64(s.lagNS) / 1e6 }))
	m["store.dest_write_us_per_doc"] = ratio(float64(a.destWriteNS-b.destWriteNS)/1e3, docs)
	m["store.dest_bytes_per_doc"] = ratio(float64(a.destBytes-b.destBytes), docs)

	syncs := float64(a.devSyncs - b.devSyncs)
	m["journal.fsyncs_per_kstep"] = ratio(1000*syncs, steps)
	m["journal.appends_per_fsync"] = ratio(float64(a.journalAppends-b.journalAppends), float64(a.journalFsyncs-b.journalFsyncs))
	m["journal.bytes_per_step"] = ratio(float64(a.devBytes-b.devBytes), steps)
	m["journal.fsync_wait_frac"] = ratio(float64(a.devSyncNS-b.devSyncNS), wall)

	m["trace.overhead_frac"] = 1 - ratio(endToEndMetrics(traced)["steps_per_s"], plainRate)
	var self int64
	for _, r := range rows {
		self += r.Self
	}
	for l, name := range [nLayers]string{"job", "api", "store_src", "extractors", "validate", "store_dest", "journal"} {
		m["trace."+name+"_self_frac"] = ratio(float64(rows[l].Self), float64(self))
	}
	return m
}

// residual fills core.residual_us_per_step: the traced window's CPU per
// step minus what the replayed per-operation costs account for at the
// call rates the window counted. What remains is the core pump and
// dispatchers, net/http, the SDK client and the runtime.
func residual(m map[string]float64, traced *window) {
	b, a := traced.before, traced.after
	steps := float64(total(traced.samples, func(s *jobSample) int64 { return s.steps }))
	families := float64(total(traced.samples, func(s *jobSample) int64 { return s.families }))
	perStep := func(n float64) float64 { return ratio(n, steps) }
	crawl := m["crawler.crawl_nofp_us_per_family"]
	if a.cache.Hits+a.cache.Misses > b.cache.Hits+b.cache.Misses {
		crawl = m["crawler.crawl_us_per_family"] // the cache was consulted, so the crawl fingerprinted
	}
	explained := perStep(float64(a.extBytes-b.extBytes)/1024)*m["extractors.us_per_kb"] +
		perStep(families)*(crawl+m["scheduler.plan_us_per_family"]+
			m["validate.process_us_per_doc"]+m["store.dest_write_us_per_doc"]) +
		m["queue.sent_per_step"]*m["queue.cycle_us_per_msg"] +
		m["faas.tasks_per_step"]*m["faas.roundtrip_us_per_task"] +
		perStep(float64(a.journalAppends-b.journalAppends))*m["journal.append_us_per_rec"] +
		perStep(float64(a.cache.Hits-b.cache.Hits))*m["cache.get_us"] +
		perStep(float64(a.cache.Misses-b.cache.Misses))*m["cache.put_us"]
	m["core.residual_us_per_step"] = ratio(float64(traced.meter.cpuNS)/1e3, steps) - explained
}

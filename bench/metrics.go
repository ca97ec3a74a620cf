package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"

	"xtract/internal/cache"
)

// metricDef names one metric and its unit. The lists below are what a
// run emits; BENCHMARK.json declares the same names (the smoke test
// holds the two to each other).
type metricDef struct{ name, unit string }

// endToEnd is emitted by untraced runs, for every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"steps_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"cpu_us_per_step", "us"},
	{"allocs_per_step", "count"},
	{"peak_rss_mb", "MB"},
}

// perLayer is emitted by traced runs, for every workload. Source of each:
// B = boundary decorators and SDK-call spans in the traced window,
// C = the system's own observables read after it, R = layer replay.
var perLayer = []metricDef{
	{"api.submit_us_p50", "us"},                 // B
	{"api.submit_us_p99", "us"},                 // B
	{"api.status_us_p50", "us"},                 // B
	{"api.status_calls_per_job", "count"},       // B
	{"api.job_ms_p99", "ms"},                    // B
	{"api.jobs_per_s", "1/s"},                   // B
	{"auth.validate_us", "us"},                  // R
	{"tenant.acquire_us", "us"},                 // R
	{"tenant.throttled_total", "count"},         // C
	{"registry.job_update_us", "us"},            // R
	{"crawler.crawl_us_per_family", "us"},       // R
	{"crawler.crawl_nofp_us_per_family", "us"},  // R
	{"crawler.list_calls_per_kfamily", "count"}, // B
	{"family.mintransfers_us_per_group", "us"},  // R
	{"scheduler.plan_us_per_family", "us"},      // R
	{"queue.cycle_us_per_msg", "us"},            // R
	{"queue.sent_per_step", "count"},            // C
	{"core.pump_wakeups_per_kstep", "count"},    // C
	{"core.idle_wakeups_per_kstep", "count"},    // C
	{"core.dispatch_latency_ms_mean", "ms"},     // C
	{"core.residual_us_per_step", "us"},         // derived
	{"core.procs_speedup", "ratio"},             // B
	{"core.cores_busy", "cores"},                // B
	{"faas.roundtrip_us_per_task", "us"},        // R
	{"faas.tasks_per_step", "count"},            // C
	{"faas.task_latency_ms_mean", "ms"},         // C
	{"transfer.us_per_file", "us"},              // R
	{"transfer.jobs_per_kfamily", "count"},      // C
	{"transfer.bytes_staged_per_step", "B"},     // C
	{"transfer.duration_ms_mean", "ms"},         // C
	{"extractors.us_per_step", "us"},            // B
	{"extractors.calls_per_step", "count"},      // B
	{"extractors.us_per_kb", "us"},              // R
	{"store.src_read_bytes_per_step", "B"},      // B
	{"store.src_list_us_per_call", "us"},        // B
	{"store.src_busy_frac", "ratio"},            // B
	{"cache.get_us", "us"},                      // R
	{"cache.put_us", "us"},                      // R
	{"cache.hit_ratio", "ratio"},                // C
	{"cache.evictions_per_kstep", "count"},      // C
	{"validate.process_us_per_doc", "us"},       // R
	{"validate.us_per_doc", "us"},               // B
	{"validate.lag_ms_p50", "ms"},               // B
	{"store.dest_write_us_per_doc", "us"},       // B
	{"store.dest_bytes_per_doc", "B"},           // B
	{"journal.append_us_per_rec", "us"},         // R
	{"journal.sync_append_us", "us"},            // R
	{"journal.replay_us_per_rec", "us"},         // R
	{"journal.fsyncs_per_kstep", "count"},       // B
	{"journal.appends_per_fsync", "count"},      // C
	{"journal.bytes_per_step", "B"},             // B
	{"journal.fsync_wait_frac", "ratio"},        // B
	{"fastjson.encode_us_per_kb", "us"},         // R
	{"fastjson.decode_us_per_kb", "us"},         // R
	{"trace.overhead_frac", "ratio"},            // B
	{"trace.job_self_frac", "ratio"},            // B
	{"trace.api_self_frac", "ratio"},            // B
	{"trace.store_src_self_frac", "ratio"},      // B
	{"trace.extractors_self_frac", "ratio"},     // B
	{"trace.validate_self_frac", "ratio"},       // B
	{"trace.store_dest_self_frac", "ratio"},     // B
	{"trace.journal_self_frac", "ratio"},        // B
}

// promText is one parsed /metrics scrape: full series text → value.
type promText map[string]float64

func parseProm(text string) promText {
	out := make(promText)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// sum adds every series of the named metric whose label text contains
// match ("" for all), and reports whether any series was there.
func (p promText) sum(name, match string) (float64, bool) {
	var t float64
	found := false
	for series, v := range p {
		metric, labels, _ := strings.Cut(series, "{")
		if metric == name && strings.Contains(labels, match) {
			t += v
			found = true
		}
	}
	return t, found
}

// snapshot is every cumulative counter the per-layer metrics are deltas
// of, read at one instant.
type snapshot struct {
	prom  promText
	cache cache.Stats

	journalAppends, journalFsyncs int64
	queueSent                     int64
	throttled                     int64

	devSyncs, devBytes, devSyncNS      int64
	destWrites, destBytes, destWriteNS int64
	srcListCalls, srcListNS            int64
	srcReadBytes, srcBusyNS            int64
	extCalls, extNS, extBytes          int64
	valCalls, valNS                    int64
}

// snap reads the system's observables: /metrics and the cache statistics
// through the SDK, the rest from the deployment handle and the
// harness's own devices.
func (e *env) snap() snapshot {
	var s snapshot
	if text, err := e.clients[0].Metrics(); err != nil {
		fmt.Fprintln(os.Stderr, "bench: scrape /metrics:", err)
	} else {
		s.prom = parseProm(text)
	}
	if cs, err := e.clients[0].CacheStats(); err != nil {
		fmt.Fprintln(os.Stderr, "bench: cache stats:", err)
	} else {
		s.cache = cs.Stats
	}
	s.journalAppends, s.journalFsyncs, _ = e.jnl.Stats()
	q := e.dep.Queues
	for _, qu := range []interface{ Stats() (int64, int64) }{q.Families, q.Prefetch, q.PrefetchDone, q.Results} {
		sent, _ := qu.Stats()
		s.queueSent += sent
	}
	for _, ts := range e.dep.Tenants.Snapshots() {
		s.throttled += ts.Usage.Throttled
	}
	s.devSyncs, s.devBytes, s.devSyncNS = e.jdev.syncs.Load(), e.jdev.bytes.Load(), e.jdev.syncNS.Load()
	s.destWrites, s.destBytes, s.destWriteNS = e.dest.writes.Load(), e.dest.bytes.Load(), e.dest.writeNS.Load()
	for _, ts := range e.srcStores {
		s.srcListCalls += ts.list.calls.Load()
		s.srcListNS += ts.list.ns.Load()
		s.srcReadBytes += ts.read.bytes.Load()
		s.srcBusyNS += ts.list.ns.Load() + ts.read.ns.Load() + ts.write.ns.Load()
	}
	if e.extStats != nil {
		s.extCalls, s.extNS, s.extBytes = e.extStats.calls.Load(), e.extStats.ns.Load(), e.extStats.bytes.Load()
	}
	if e.validator != nil {
		s.valCalls, s.valNS = e.validator.stats.calls.Load(), e.validator.stats.ns.Load()
	}
	return s
}

// promDelta is the growth of a /metrics series between two snapshots.
// A series absent from the later scrape is reported once on standard
// error and read as 0: a renamed series must not fail the run.
func promDelta(before, after snapshot, name, match string) float64 {
	a, ok := after.prom.sum(name, match)
	if !ok {
		if !missingSeries[name] {
			missingSeries[name] = true
			fmt.Fprintf(os.Stderr, "bench: series %s{%s} missing from /metrics\n", name, match)
		}
		return 0
	}
	b, _ := before.prom.sum(name, match)
	return a - b
}

var missingSeries = map[string]bool{}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

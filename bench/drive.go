package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"xtract/internal/api"
)

// jobSample is what one job contributed to the run.
type jobSample struct {
	key string
	// jobNS is the job's time: from just before Submit until the later of
	// the status poll that saw it complete and its last document write.
	jobNS    int64
	submitNS int64
	// lagNS is how long after the completing poll the last document was
	// written (0 when it was written before the poll returned).
	lagNS       int64
	statusCalls int
	statusNS    int64

	steps, families, docs int64
	cacheHits             int64
	wakeups, idleWakeups  int64
	bytesStaged           int64

	// cpuNS and mallocs are the process's CPU time and heap allocations
	// over the job's time; set only when one client runs jobs back to back.
	cpuNS, mallocs int64

	attempted, failed int64
	digest            uint64
	err               string
}

// docWait bounds how long the harness waits for a finished job's
// documents before counting them missing.
const docWait = 30 * time.Second

// runJob submits client c's next job through the SDK, waits for it and
// for its documents, and verifies them. timed, when set, is called with
// the steps the job processed once its time has ended, before
// verification starts.
func (e *env) runJob(c int, timed func(steps int64)) jobSample {
	if timed == nil {
		timed = func(int64) {}
	}
	cl := e.clients[c]
	n := e.jobSeq[c]
	e.jobSeq[c]++
	j := e.plan.next(c, n)
	s := jobSample{key: j.key, attempted: 1}

	w := e.dest.watch(j.prefix)
	defer e.dest.unwatch(w)
	root, rootStart := e.tr.openJob(c, n)

	t0 := sinceEpoch()
	sp := e.tr.begin()
	id, err := cl.Submit(j.req)
	e.tr.end(layerAPI, opSubmit, c, sp, 0)
	tSub := sinceEpoch()
	s.submitNS = tSub - t0
	if err != nil {
		e.tr.closeJob(c, n, root, rootStart, tSub)
		timed(0)
		s.failed, s.err, s.jobNS = 1, err.Error(), tSub-t0
		return s
	}

	var st api.JobStatus
	deadline := time.Now().Add(2 * time.Minute)
	for {
		p0 := sinceEpoch()
		sp = e.tr.begin()
		st, err = cl.JobStatus(id)
		e.tr.end(layerAPI, opStatus, c, sp, 0)
		s.statusCalls++
		s.statusNS += sinceEpoch() - p0
		if err != nil || st.Complete {
			break
		}
		if time.Now().After(deadline) {
			err = fmt.Errorf("job %s did not complete in 2m", id)
			break
		}
		time.Sleep(e.plan.poll)
	}
	tDone := sinceEpoch()
	if err != nil || st.Stats == nil {
		e.tr.closeJob(c, n, root, rootStart, tDone)
		timed(0)
		s.failed, s.jobNS = 1, tDone-t0
		s.err = fmt.Sprintf("job %s: status: %v", id, err)
		return s
	}

	js := st.Stats
	s.steps, s.families = js.StepsProcessed, js.FamiliesDone
	s.cacheHits, s.bytesStaged = js.CacheHits, js.BytesStaged
	s.wakeups, s.idleWakeups = js.PumpWakeups, js.PumpIdleWakeups

	w.wait(js.FamiliesDone, docWait)
	end := tDone
	if last := w.last.Load(); last > end {
		end = last
		s.lagNS = last - tDone
	}
	s.jobNS = end - t0
	e.tr.closeJob(c, n, root, rootStart, end)
	timed(s.steps)

	// Everything below is verification, outside the job's time.
	paths := w.sortedPaths()
	s.docs = int64(len(paths))
	s.attempted += js.Crawl.FamiliesEmitted + js.StepsProcessed + js.StepsDeadLettered + js.FamiliesDone
	if st.Err != "" {
		s.failed++
		s.err = fmt.Sprintf("job %s: %s", id, st.Err)
	}
	s.failed += js.FamiliesFailed + js.StepsDeadLettered
	if miss := js.FamiliesDone - s.docs; miss != 0 {
		if miss < 0 {
			miss = -miss
		}
		s.failed += miss
		s.err = fmt.Sprintf("job %s: %d documents for %d families", id, s.docs, js.FamiliesDone)
	}
	if js.FamiliesDone != js.Crawl.FamiliesEmitted {
		s.err = fmt.Sprintf("job %s: %d of %d families done", id, js.FamiliesDone, js.Crawl.FamiliesEmitted)
	}
	var bad int64
	s.digest, bad = e.dest.digest(paths)
	if bad > 0 {
		s.failed += bad
		s.err = fmt.Sprintf("job %s: %d documents unreadable", id, bad)
	}
	return s
}

// sortedPaths returns the document paths written under the watch.
func (w *watch) sortedPaths() []string {
	w.mu.Lock()
	paths := append([]string(nil), w.paths...)
	w.mu.Unlock()
	sort.Strings(paths)
	return paths
}

// digest hashes the documents at paths (sorted): each document's path
// and its body with the top-level "files" array sorted, because the
// order of files inside a family document differs from job to job. It
// also returns how many documents could not be read back or parsed.
func (d *destStore) digest(paths []string) (sum uint64, bad int64) {
	h := fnv.New64a()
	var files []string
	var keys []string
	for _, p := range paths {
		body, err := d.Store.Read(p)
		if err != nil {
			bad++
			continue
		}
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(body, &doc); err != nil {
			bad++
			continue
		}
		files = files[:0]
		if raw, ok := doc["files"]; ok {
			if err := json.Unmarshal(raw, &files); err != nil {
				bad++
				continue
			}
			sort.Strings(files)
		}
		keys = keys[:0]
		for k := range doc {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		h.Write([]byte(p))
		for _, k := range keys {
			h.Write([]byte{0})
			h.Write([]byte(k))
			h.Write([]byte{1})
			if k == "files" {
				for _, f := range files {
					h.Write([]byte(f))
					h.Write([]byte{2})
				}
			} else {
				h.Write(doc[k])
			}
		}
		h.Write([]byte{3})
	}
	return h.Sum64(), bad
}

// meter accumulates process CPU time and heap allocations over the
// intervals between start and stop.
type meter struct {
	cpuNS, mallocs int64
	cpu0           int64
	mal0           uint64
}

func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

func (m *meter) start() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.mal0, m.cpu0 = ms.Mallocs, cpuNow()
}

func (m *meter) stop() {
	var ms runtime.MemStats
	m.cpuNS += cpuNow() - m.cpu0
	runtime.ReadMemStats(&ms)
	m.mallocs += int64(ms.Mallocs - m.mal0)
}

// slice is one piece of a window that the rate metrics are estimated
// from: one job with a single client, sliceLen of wall time with several
// (their jobs overlap and cannot be costed one by one).
type slice struct{ steps, ns, cpuNS int64 }

const sliceLen = 500 * time.Millisecond

// window is one measured interval: the jobs that ran in it and what the
// process spent while they ran.
type window struct {
	samples []jobSample
	slices  []slice
	wallNS  int64
	// busyNS is the wall time jobs were running: the sum of job times
	// with one client (verification between jobs excluded), the whole
	// window with several.
	busyNS int64
	meter  meter
	// before and after bracket the window with every cumulative counter.
	before, after snapshot
}

// measure drives every client as a closed loop for d and returns what
// happened. Each client starts its next job only after the previous one
// has completed and been verified; a job begun before the deadline runs
// to completion. With one client CPU and allocations are metered job by
// job, which keeps verification out of them; overlapping clients are
// metered over the whole window and sampled every sliceLen.
func (e *env) measure(d time.Duration) *window {
	win := &window{before: e.snap()}
	clients := e.plan.clients
	perJob := clients == 1
	start := time.Now()
	deadline := start.Add(d)

	var stepsDone atomic.Int64
	stopSampler := make(chan struct{})
	var sampler sync.WaitGroup
	if !perJob {
		win.meter.start()
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			tick := time.NewTicker(sliceLen)
			defer tick.Stop()
			t0, cpu0, steps0 := time.Now(), cpuNow(), int64(0)
			for stopped := false; !stopped; {
				select {
				case <-stopSampler:
					stopped = true
				case <-tick.C:
				}
				t1, cpu1, steps1 := time.Now(), cpuNow(), stepsDone.Load()
				// The last slice is short; a sliver would be all noise.
				if stopped && t1.Sub(t0) < sliceLen/2 && len(win.slices) > 0 {
					return
				}
				win.slices = append(win.slices, slice{steps1 - steps0, int64(t1.Sub(t0)), cpu1 - cpu0})
				t0, cpu0, steps0 = t1, cpu1, steps1
			}
		}()
	}

	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mine []jobSample
			for time.Now().Before(deadline) {
				var s jobSample
				if perJob {
					cpu0, mal0 := win.meter.cpuNS, win.meter.mallocs
					win.meter.start()
					s = e.runJob(c, func(int64) { win.meter.stop() })
					s.cpuNS, s.mallocs = win.meter.cpuNS-cpu0, win.meter.mallocs-mal0
				} else {
					s = e.runJob(c, func(steps int64) { stepsDone.Add(steps) })
				}
				mine = append(mine, s)
			}
			mu.Lock()
			win.samples = append(win.samples, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	win.wallNS = int64(time.Since(start))
	close(stopSampler)
	sampler.Wait()
	if perJob {
		for i := range win.samples {
			s := &win.samples[i]
			win.slices = append(win.slices, slice{s.steps, s.jobNS, s.cpuNS})
			win.busyNS += s.jobNS
		}
	} else {
		win.meter.stop()
		win.busyNS = win.wallNS
	}
	win.after = e.snap()
	return win
}

// warmup runs the plan's set-up jobs on every client (the cache-priming
// job of warm-rerun is one of these) and returns them.
func (e *env) warmup() []jobSample {
	var out []jobSample
	for i := 0; i < e.plan.warmups; i++ {
		for c := 0; c < e.plan.clients; c++ {
			out = append(out, e.runJob(c, nil))
		}
	}
	return out
}

// --- small statistics ---

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile is the nearest-rank quantile of v (0 for no samples).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sortedCopy(v)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func pick(samples []jobSample, f func(*jobSample) float64) []float64 {
	out := make([]float64, len(samples))
	for i := range samples {
		out[i] = f(&samples[i])
	}
	return out
}

func total(samples []jobSample, f func(*jobSample) int64) int64 {
	var t int64
	for i := range samples {
		t += f(&samples[i])
	}
	return t
}

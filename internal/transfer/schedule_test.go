package transfer

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"xtract/internal/clock"
	"xtract/internal/store"
)

// benchLink is the link bench/workloads.go gives stage-remote.
var benchLink = Link{BytesPerSec: 200e6, RTT: 5 * time.Millisecond, PerFileOverhead: 100 * time.Microsecond}

// scheduleRig is a fabric on a fake clock with one job's worth of source
// files. The fabric's sleeps are the clock's only timers, so a solitary
// job that is parked shows as exactly one pending timer.
type scheduleRig struct {
	clk    *clock.Fake
	start  time.Time
	fabric *Fabric
	src    *store.MemFS
	dst    *store.MemFS
	link   Link
}

func newScheduleRig(t testing.TB, link Link) *scheduleRig {
	t.Helper()
	start := time.Unix(1_700_000_000, 0)
	clk := clock.NewFake(start)
	r := &scheduleRig{clk: clk, start: start, fabric: NewFabric(clk), link: link,
		src: store.NewMemFS("src", nil), dst: store.NewMemFS("dst", nil)}
	r.fabric.AddEndpoint("src", r.src)
	r.fabric.AddEndpoint("dst", r.dst)
	r.fabric.SetLink("src", "dst", link)
	return r
}

// files writes one source file per size and returns the job's pairs.
func (r *scheduleRig) files(t testing.TB, prefix string, sizes []int) []FilePair {
	t.Helper()
	pairs := make([]FilePair, len(sizes))
	for i, n := range sizes {
		p := fmt.Sprintf("/%s/f%04d.bin", prefix, i)
		if err := r.src.Write(p, make([]byte, n)); err != nil {
			t.Fatal(err)
		}
		pairs[i] = FilePair{Src: p, Dst: "/stage" + p}
	}
	return pairs
}

// dues is the model: when each file of a solitary job lands, given the
// time the job's schedule has reached before its first file.
func (r *scheduleRig) dues(from time.Time, sizes []int) []time.Time {
	out := make([]time.Time, len(sizes))
	for i, n := range sizes {
		from = from.Add(r.link.PerFileOverhead + r.link.payloadTime(int64(n)))
		out[i] = from
	}
	return out
}

// stepTo waits for the solitary job to park and moves the clock to at.
func (r *scheduleRig) stepTo(t testing.TB, at time.Time) {
	t.Helper()
	eventually(t, "the job parked on its schedule", func() bool { return r.clk.PendingTimers() == 1 })
	r.clk.Set(at)
}

func (r *scheduleRig) landed() int {
	_, files := r.dst.TotalBytes()
	return files
}

func sizesOf(n int) []int {
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = 300 + 97*(i%7)
	}
	return sizes
}

// TestScheduleIsTheLinksExactly: on a fake clock a solitary job takes
// RTT + sum(PerFileOverhead + bytes/BytesPerSec) to the nanosecond,
// however many files it has: the schedule charges what the Link says.
func TestScheduleIsTheLinksExactly(t *testing.T) {
	for _, n := range []int{1, 50, 5000} {
		r := newScheduleRig(t, benchLink)
		sizes := sizesOf(n)
		id, err := r.fabric.Submit("src", "dst", r.files(t, "d", sizes))
		if err != nil {
			t.Fatal(err)
		}
		r.stepTo(t, r.start.Add(benchLink.RTT))
		dues := r.dues(r.start.Add(benchLink.RTT), sizes)
		for _, due := range dues {
			r.stepTo(t, due)
		}
		info, err := r.fabric.Wait(id)
		if err != nil || info.Status != StatusSucceeded || info.FilesDone != n {
			t.Fatalf("%d files: info = %+v, err %v", n, info, err)
		}
		if want := dues[n-1].Sub(r.start); info.Elapsed != want {
			t.Fatalf("%d files took %v, the link says %v", n, info.Elapsed, want)
		}
	}
}

// TestFilesLandAtTheirModelledTime: a 200-file job on a link charging
// 100 µs a file takes RTT + 20 ms, and file k is at the destination at
// RTT + k x 100 µs and not a file earlier.
func TestFilesLandAtTheirModelledTime(t *testing.T) {
	const n = 200
	link := Link{RTT: 5 * time.Millisecond, PerFileOverhead: 100 * time.Microsecond}
	r := newScheduleRig(t, link)
	sizes := sizesOf(n)
	id, err := r.fabric.Submit("src", "dst", r.files(t, "d", sizes))
	if err != nil {
		t.Fatal(err)
	}
	r.stepTo(t, r.start.Add(link.RTT))
	for k, due := range r.dues(r.start.Add(link.RTT), sizes) {
		eventually(t, "the job parked before its next file", func() bool { return r.clk.PendingTimers() == 1 })
		if got := r.landed(); got != k {
			t.Fatalf("at %v: %d files at the destination, the model says %d", r.clk.Since(r.start), got, k)
		}
		r.clk.Set(due)
		eventually(t, "the file due now", func() bool { return r.landed() == k+1 })
	}
	info, _ := r.fabric.Wait(id)
	if want := link.RTT + 20*time.Millisecond; info.Elapsed != want || info.FilesDone != n {
		t.Fatalf("info = %+v, want %d files in %v", info, n, want)
	}
}

// stallOnce stalls the first fabric job it is consulted for.
type stallOnce struct {
	d     time.Duration
	fired bool
}

func (s *stallOnce) TransferFault(string, string) (time.Duration, error) {
	if s.fired {
		return 0, nil
	}
	s.fired = true
	return s.d, nil
}

// TestStallShiftsTheSchedule: an injected stall moves every file of the
// job later by exactly the stall.
func TestStallShiftsTheSchedule(t *testing.T) {
	const stall = 30 * time.Millisecond
	r := newScheduleRig(t, benchLink)
	r.fabric.SetFaults(&stallOnce{d: stall})
	sizes := sizesOf(20)
	id, err := r.fabric.Submit("src", "dst", r.files(t, "d", sizes))
	if err != nil {
		t.Fatal(err)
	}
	r.stepTo(t, r.start.Add(benchLink.RTT))
	r.stepTo(t, r.start.Add(benchLink.RTT+stall))
	if got := r.landed(); got != 0 {
		t.Fatalf("%d files landed during the stall", got)
	}
	dues := r.dues(r.start.Add(benchLink.RTT+stall), sizes)
	for _, due := range dues {
		r.stepTo(t, due)
	}
	info, _ := r.fabric.Wait(id)
	if want := dues[len(dues)-1].Sub(r.start); info.Elapsed != want || info.Status != StatusSucceeded {
		t.Fatalf("stalled job: %+v, want %v", info, want)
	}
}

// TestConcurrentJobsSharePayloadNotOverhead: ten jobs at once cannot
// move more bytes than the link's rate allows, but the per-file overhead
// is each job's own and overlaps, so the lot ends near the payload bound
// and far below the sum of the overheads.
func TestConcurrentJobsSharePayloadNotOverhead(t *testing.T) {
	const jobs, files, size = 10, 10, 2000
	link := Link{BytesPerSec: 1e6, PerFileOverhead: 10 * time.Millisecond} // 2 ms of payload a file
	r := newScheduleRig(t, link)
	sizes := make([]int, files)
	for i := range sizes {
		sizes[i] = size
	}
	var finished atomic.Int32
	for j := 0; j < jobs; j++ {
		id, err := r.fabric.Submit("src", "dst", r.files(t, fmt.Sprintf("j%d", j), sizes))
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			if info, err := r.fabric.Wait(id); err != nil || info.Status != StatusSucceeded {
				t.Errorf("job %s: %+v, %v", id, info, err)
			}
			finished.Add(1)
		}()
	}
	// A job holds no lock while it waits for the link, so every live job
	// is either running or parked on a timer, and time moves only when
	// all of them are parked.
	for {
		live := jobs - int(finished.Load())
		if live == 0 {
			break
		}
		if r.clk.PendingTimers() == live {
			r.clk.Advance(time.Millisecond)
		} else {
			runtime.Gosched()
		}
	}
	total := r.clk.Since(r.start)
	payload := link.payloadTime(jobs * files * size)
	overhead := jobs * files * link.PerFileOverhead
	if total < payload {
		t.Fatalf("ten jobs moved %d bytes in %v; the link needs %v", jobs*files*size, total, payload)
	}
	if total > overhead/2 {
		t.Fatalf("ten jobs took %v; their per-file overhead (%v in all) did not overlap", total, overhead)
	}
}

// TestSmallFilesCostWhatTheLinkSays is the one real-clock guard: fifty
// small files over the bench's link are modelled at 10 ms, and a sleep
// per charge made them about 75 ms on a host whose timers tick at 1 ms.
// The best of five attempts must stay under twice the model.
func TestSmallFilesCostWhatTheLinkSays(t *testing.T) {
	if testing.Short() {
		t.Skip("real-clock timing")
	}
	clk := clock.NewReal()
	f := NewFabric(clk)
	src := store.NewMemFS("src", nil)
	f.AddEndpoint("src", src)
	f.AddEndpoint("dst", store.NewMemFS("dst", nil))
	f.SetLink("src", "dst", benchLink)
	var pairs []FilePair
	model := benchLink.RTT
	for i, n := range sizesOf(50) {
		p := fmt.Sprintf("/d/f%02d.bin", i)
		if err := src.Write(p, make([]byte, n)); err != nil {
			t.Fatal(err)
		}
		pairs = append(pairs, FilePair{Src: p, Dst: "/stage" + p})
		model += benchLink.PerFileOverhead + benchLink.payloadTime(int64(n))
	}
	best := time.Duration(1 << 62)
	for try := 0; try < 5; try++ {
		id, err := f.Submit("src", "dst", pairs)
		if err != nil {
			t.Fatal(err)
		}
		info, err := f.Wait(id)
		if err != nil || info.Status != StatusSucceeded {
			t.Fatalf("info = %+v, err %v", info, err)
		}
		if info.Elapsed < model {
			t.Fatalf("job took %v, less than the link's %v", info.Elapsed, model)
		}
		if info.Elapsed < best {
			best = info.Elapsed
		}
	}
	if best > 2*model {
		t.Fatalf("50 small files took %v at best; the link says %v", best, model)
	}
}

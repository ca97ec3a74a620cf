package transfer

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"xtract/internal/obs"
)

// TestPrefetcherReportsFamilyWhenItsFilesLand: the first family of a
// 64-family window is reported while the other 63 are still crossing the
// link; every family is reported once, with its own bytes and the time
// its own last file landed.
func TestPrefetcherReportsFamilyWhenItsFilesLand(t *testing.T) {
	const n = 64
	r := newPipelineRigOn(t, streamLink)
	r.pf.BatchWindow = n
	r.send(n)
	stop := r.run(1)
	defer stop()

	r.landFile(t, rigRTT)
	for k := 1; k <= n; k++ {
		r.landFile(t, rigFile)
		eventually(t, "the landed family's result", func() bool { return r.reported() == k && r.pf.Pending() == int64(n-k) })
		if k < n && r.fabric.JobRecords() != 1 {
			t.Fatalf("family %d reported by a window whose job is gone", k)
		}
	}
	eventually(t, "the job's record collected", func() bool { return r.fabric.JobRecords() == 0 })
	for k, x := range r.results() {
		want := PrefetchResult{FamilyID: fmt.Sprintf("fam-%d", k),
			OK: true, Bytes: 10, Elapsed: rigRTT + time.Duration(k+1)*rigFile}
		if x != want {
			t.Fatalf("result %d = %+v, want %+v", k, x, want)
		}
	}
	if r.pf.TasksDone.Load() != n || r.pf.TasksFailed.Load() != 0 || r.pf.BytesMoved.Load() != 10*n {
		t.Fatalf("TasksDone = %d, TasksFailed = %d, BytesMoved = %d",
			r.pf.TasksDone.Load(), r.pf.TasksFailed.Load(), r.pf.BytesMoved.Load())
	}
}

// TestPrefetcherJobFailingMidWindow: a job that fails at one family's
// second file leaves the families before it staged and fails that family
// and the ones behind it with the job's error — each reported once.
func TestPrefetcherJobFailingMidWindow(t *testing.T) {
	const n, bad = 6, 2
	r := newPipelineRigOn(t, streamLink)
	pairs := make([][]FilePair, n)
	for i := range pairs {
		second := "/d/a.bin"
		if i == bad {
			second = "/d/missing.bin"
		}
		pairs[i] = []FilePair{
			{Src: "/d/a.bin", Dst: fmt.Sprintf("/stage/%d/a.bin", i)},
			{Src: second, Dst: fmt.Sprintf("/stage/%d/b.bin", i)},
		}
	}
	r.stage(pairs...)
	stop := r.run(1)
	defer stop()

	r.landFile(t, rigRTT)
	for k := 1; k <= 2*bad+1; k++ { // every file before the missing one
		r.landFile(t, rigFile)
	}
	eventually(t, "every family reported", func() bool { return r.reported() == n && r.pf.Pending() == 0 })
	if r.fabric.JobRecords() != 0 {
		t.Fatalf("%d job records", r.fabric.JobRecords())
	}
	for k, x := range r.results() {
		if x.FamilyID != fmt.Sprintf("fam-%d", k) {
			t.Fatalf("result %d is for %s", k, x.FamilyID)
		}
		switch {
		case k < bad && (!x.OK || x.Bytes != 20 || x.Err != ""):
			t.Fatalf("family %d landed before the failure: %+v", k, x)
		case k >= bad && (x.OK || x.Bytes != 0 || !strings.Contains(x.Err, "/d/missing.bin")):
			t.Fatalf("family %d did not land: %+v", k, x)
		}
	}
	if r.pf.TasksDone.Load() != bad || r.pf.TasksFailed.Load() != n-bad || r.pf.BytesMoved.Load() != 20*bad {
		t.Fatalf("TasksDone = %d, TasksFailed = %d, BytesMoved = %d",
			r.pf.TasksDone.Load(), r.pf.TasksFailed.Load(), r.pf.BytesMoved.Load())
	}
}

// TestPrefetcherCancelMidWindow: cancelling with part of a window
// reported drops exactly the unreported tasks, and Run returns only
// after the waiter has done so and let go of its fabric job.
func TestPrefetcherCancelMidWindow(t *testing.T) {
	const n, landed = 8, 3
	r := newPipelineRigOn(t, streamLink)
	r.send(n)
	stop := r.run(1)
	r.landFile(t, rigRTT)
	for k := 1; k <= landed; k++ {
		r.landFile(t, rigFile)
		eventually(t, "the landed family's result", func() bool { return r.reported() == k })
	}
	eventually(t, "the job parked on the link", func() bool { return r.clk.PendingTimers() == 1 })
	stop()

	if got := r.pf.Pending(); got != 0 {
		t.Fatalf("after Run returned: %d tasks pending, want the unreported %d dropped", got, n-landed)
	}
	if got := r.fabric.JobRecords(); got != 0 {
		t.Fatalf("%d waiters still hold their job", got)
	}
	res := r.results()
	if len(res) != landed {
		t.Fatalf("%d results after cancel, want the %d reported before it", len(res), landed)
	}
	for k, x := range res {
		if x.FamilyID != fmt.Sprintf("fam-%d", k) || !x.OK {
			t.Fatalf("result %d = %+v, want fam-%d staged", k, x, k)
		}
	}
	r.clk.Advance(time.Second) // let the abandoned fabric job run out
}

// TestPrefetchResultCarriesItsOwnBytes: one window holding a 10-byte
// family and a 10 KiB family bills each its own bytes, not the window's
// average (the prefetcher is deployment-wide, so the two may be different
// tenants'), and the results add up to what the prefetcher and the
// fabric each say moved.
func TestPrefetchResultCarriesItsOwnBytes(t *testing.T) {
	r := newPipelineRig(t)
	reg := obs.NewRegistry()
	r.fabric.Instrument(reg)
	src, err := r.fabric.Endpoint("src")
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Store.Write("/d/big.bin", make([]byte, 10240)); err != nil {
		t.Fatal(err)
	}
	r.stage([]FilePair{{Src: "/d/a.bin", Dst: "/stage/a/a.bin"}}, []FilePair{{Src: "/d/big.bin", Dst: "/stage/b/big.bin"}})
	stop := r.run(1)
	defer stop()
	r.landFile(t, rigRTT)
	eventually(t, "both results", func() bool { return r.reported() == 2 && r.fabric.JobRecords() == 0 })
	res := r.results()
	if res[0].Bytes != 10 || res[1].Bytes != 10240 {
		t.Fatalf("billed %d and %d bytes, want 10 and 10240", res[0].Bytes, res[1].Bytes)
	}
	sum := res[0].Bytes + res[1].Bytes
	moved := reg.Counter("xtract_transfer_bytes_total", "").Value()
	if r.pf.BytesMoved.Load() != sum || moved != float64(sum) {
		t.Fatalf("results bill %d bytes, BytesMoved = %d, the fabric moved %v", sum, r.pf.BytesMoved.Load(), moved)
	}
}

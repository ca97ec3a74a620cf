package transfer

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"xtract/internal/clock"
	"xtract/internal/obs"
	"xtract/internal/queue"
)

// TestPrefetcherReportsFamilyWhenItsFilesLand: the first family of a
// 64-family window is on the done queue, acknowledged, while the other
// 63 are still crossing the link; every family is reported once, with
// its own bytes and the time its own last file landed.
func TestPrefetcherReportsFamilyWhenItsFilesLand(t *testing.T) {
	const n = 64
	r := newPipelineRigOn(t, clock.NewReal(), streamLink)
	r.pf.BatchWindow = n
	r.send(n)
	stop := r.run(1)
	defer stop()

	r.landFile(t, rigRTT)
	for k := 1; k <= n; k++ {
		r.landFile(t, rigFile)
		eventually(t, "the landed family's result", func() bool { return r.out.Len() == k && r.in.InFlight() == n-k })
		if k < n && r.fabric.JobRecords() != 1 {
			t.Fatalf("family %d reported by a window whose job is gone", k)
		}
	}
	eventually(t, "the job's record collected", func() bool { return r.fabric.JobRecords() == 0 })
	for k, x := range r.results(t) {
		// Two jobs' tasks share the window: each result names its task's job.
		want := PrefetchResult{JobID: fmt.Sprintf("job-%d", k%2), FamilyID: fmt.Sprintf("fam-%d", k),
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

// TestPrefetcherStreamsSendBeforeDelete: every streamed report keeps the
// order a whole-window report had. When the s-th result goes onto the
// done queue fewer than s receipts have been deleted, so its own is
// still held: a crash there redelivers a task and loses no result.
func TestPrefetcherStreamsSendBeforeDelete(t *testing.T) {
	const n = 12
	var in *queue.Queue
	var sends, early atomic.Int64
	r := newPipelineRigOn(t, sendSpy{Clock: clock.NewReal(), onNow: func() {
		if _, deleted := in.Stats(); deleted >= sends.Add(1) {
			early.Add(1)
		}
	}}, streamLink)
	in = r.in
	r.send(n)
	stop := r.run(1)
	defer stop()

	r.landFile(t, rigRTT)
	for k := 1; k <= n; k += 3 { // three files at a time: reports of up to three families
		r.landFile(t, 3*rigFile)
		eventually(t, "the report acknowledged", func() bool { _, deleted := r.in.Stats(); return deleted == int64(k+2) })
	}
	if sends.Load() != n || early.Load() != 0 {
		t.Fatalf("%d results sent, %d of them after their receipt was deleted", sends.Load(), early.Load())
	}
}

// TestPrefetcherJobFailingMidWindow: a job that fails at one family's
// second file leaves the families before it staged and fails that family
// and the ones behind it with the job's error — each reported once.
func TestPrefetcherJobFailingMidWindow(t *testing.T) {
	const n, bad = 6, 2
	r := newPipelineRigOn(t, clock.NewReal(), streamLink)
	bodies := make([][]byte, n)
	for i := range bodies {
		second := "/d/a.bin"
		if i == bad {
			second = "/d/missing.bin"
		}
		bodies[i] = AppendPrefetchTask(nil, &PrefetchTask{
			FamilyID: fmt.Sprintf("fam-%d", i), Src: "src", Dst: "dst",
			Pairs: []FilePair{
				{Src: "/d/a.bin", Dst: fmt.Sprintf("/stage/%d/a.bin", i)},
				{Src: second, Dst: fmt.Sprintf("/stage/%d/b.bin", i)},
			},
		})
	}
	r.in.SendBatch(bodies)
	stop := r.run(1)
	defer stop()

	r.landFile(t, rigRTT)
	for k := 1; k <= 2*bad+1; k++ { // every file before the missing one
		r.landFile(t, rigFile)
	}
	eventually(t, "every family reported", func() bool { return r.out.Len() == n && r.in.InFlight() == 0 })
	if r.in.Len() != 0 || r.fabric.JobRecords() != 0 {
		t.Fatalf("%d tasks back on the queue, %d job records", r.in.Len(), r.fabric.JobRecords())
	}
	for k, x := range r.results(t) {
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
// reported hands back exactly the unreported tasks, and Run returns only
// after the waiter has done so and let go of its fabric job.
func TestPrefetcherCancelMidWindow(t *testing.T) {
	const n, landed = 8, 3
	r := newPipelineRigOn(t, clock.NewReal(), streamLink)
	r.send(n)
	stop := r.run(1)
	r.landFile(t, rigRTT)
	for k := 1; k <= landed; k++ {
		r.landFile(t, rigFile)
		eventually(t, "the landed family's result", func() bool { return r.out.Len() == k })
	}
	eventually(t, "the job parked on the link", func() bool { return r.clk.PendingTimers() == 1 })
	stop()

	if held, visible := r.in.InFlight(), r.in.Len(); held != 0 || visible != n-landed {
		t.Fatalf("after Run returned: %d tasks held, %d visible; want 0 and %d", held, visible, n-landed)
	}
	if _, deleted := r.in.Stats(); deleted != landed {
		t.Fatalf("%d receipts deleted, %d families were reported", deleted, landed)
	}
	if got := r.out.Len(); got != landed {
		t.Fatalf("%d results after cancel, want the %d reported before it", got, landed)
	}
	if got := r.fabric.JobRecords(); got != 0 {
		t.Fatalf("%d waiters still hold their job", got)
	}
	for _, m := range r.in.Receive(n, time.Minute) { // the tasks handed back are the last five
		var task PrefetchTask
		if err := DecodePrefetchTask(m.Body, &task); err != nil {
			t.Fatal(err)
		}
		var k int
		if _, err := fmt.Sscanf(task.FamilyID, "fam-%d", &k); err != nil || k < landed {
			t.Fatalf("%s was reported and handed back", task.FamilyID)
		}
	}
	r.clk.Advance(time.Second) // let the abandoned fabric job run out
}

// TestPrefetchResultCarriesItsOwnBytes: one window holding a 10-byte
// family and a 10 KiB family bills each its own bytes, not the window's
// average (the prefetch queue is deployment-wide, so the two may be
// different tenants'), and the results add up to what the prefetcher and
// the fabric each say moved.
func TestPrefetchResultCarriesItsOwnBytes(t *testing.T) {
	r := newPipelineRig(t, clock.NewReal())
	reg := obs.NewRegistry()
	r.fabric.Instrument(reg)
	src, err := r.fabric.Endpoint("src")
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Store.Write("/d/big.bin", make([]byte, 10240)); err != nil {
		t.Fatal(err)
	}
	r.in.SendBatch([][]byte{
		AppendPrefetchTask(nil, &PrefetchTask{FamilyID: "tenant-a/fam", Src: "src", Dst: "dst",
			Pairs: []FilePair{{Src: "/d/a.bin", Dst: "/stage/a/a.bin"}}}),
		AppendPrefetchTask(nil, &PrefetchTask{FamilyID: "tenant-b/fam", Src: "src", Dst: "dst",
			Pairs: []FilePair{{Src: "/d/big.bin", Dst: "/stage/b/big.bin"}}}),
	})
	stop := r.run(1)
	defer stop()
	r.landFile(t, rigRTT)
	eventually(t, "both results", func() bool { return r.out.Len() == 2 && r.fabric.JobRecords() == 0 })
	res := r.results(t)
	if res[0].Bytes != 10 || res[1].Bytes != 10240 {
		t.Fatalf("billed %d and %d bytes, want 10 and 10240", res[0].Bytes, res[1].Bytes)
	}
	sum := res[0].Bytes + res[1].Bytes
	moved := reg.Counter("xtract_transfer_bytes_total", "").Value()
	if r.pf.BytesMoved.Load() != sum || moved != float64(sum) {
		t.Fatalf("results bill %d bytes, BytesMoved = %d, the fabric moved %v", sum, r.pf.BytesMoved.Load(), moved)
	}
}

package transfer

import (
	"context"
	"runtime"
	"testing"
	"time"

	"xtract/internal/clock"
	"xtract/internal/faultinject"
	"xtract/internal/store"
)

// newPrefetchRig wires a fabric with two endpoints and a prefetcher. The
// caller runs the prefetcher.
func newPrefetchRig(t *testing.T) (*Fabric, *Prefetcher) {
	t.Helper()
	clk := clock.NewReal()
	fabric := NewFabric(clk)
	src := store.NewMemFS("src", nil)
	fabric.AddEndpoint("src", src)
	fabric.AddEndpoint("dst", store.NewMemFS("dst", nil))
	if err := src.Write("/d/a.bin", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	return fabric, NewPrefetcher(fabric, clk)
}

// stageOne hands over a one-file task and returns the channel its result
// arrives on.
func stageOne(pf *Prefetcher, familyID string) <-chan PrefetchResult {
	out := make(chan PrefetchResult, 1)
	pf.Stage(PrefetchTask{
		FamilyID: familyID, Src: "src", Dst: "dst",
		Pairs: []FilePair{{Src: "/d/a.bin", Dst: "/stage/d/a.bin"}},
	}, func(res PrefetchResult) { out <- res })
	return out
}

func recvPrefetchResult(t *testing.T, out <-chan PrefetchResult) PrefetchResult {
	t.Helper()
	select {
	case res := <-out:
		return res
	case <-time.After(10 * time.Second):
		t.Fatal("no prefetch result arrived")
		return PrefetchResult{}
	}
}

func TestPrefetcherInjectedTransferError(t *testing.T) {
	fabric, pf := newPrefetchRig(t)
	fabric.SetFaults(faultinject.New(faultinject.Config{
		Seed:          1,
		TransferError: faultinject.Rule{Prob: 1, Max: 1},
	}))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go pf.Run(ctx, 1)

	res := recvPrefetchResult(t, stageOne(pf, "fam-1"))
	if res.OK {
		t.Fatalf("result OK despite injected transfer error: %+v", res)
	}
	if res.Err == "" {
		t.Fatal("failed result carries no error")
	}
	// Budget spent: a retry of the same route succeeds.
	res2 := recvPrefetchResult(t, stageOne(pf, "fam-1"))
	if !res2.OK {
		t.Fatalf("post-budget staging failed: %+v", res2)
	}
	if res2.Bytes == 0 {
		t.Fatalf("post-budget staging moved no bytes: %+v", res2)
	}
}

// TestPrefetcherCancelMidFetch: cancelling the prefetcher while a fabric
// job is in flight drops the task without a result, and every prefetcher
// goroutine exits.
func TestPrefetcherCancelMidFetch(t *testing.T) {
	fabric, pf := newPrefetchRig(t)
	// A long injected stall holds the fabric job active while we cancel.
	fabric.SetFaults(faultinject.New(faultinject.Config{
		Seed:          1,
		TransferStall: faultinject.Rule{Prob: 1, Max: 1},
		StallFor:      300 * time.Millisecond,
	}))

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan struct{})
	go func() {
		pf.Run(ctx, 2)
		close(runDone)
	}()

	out := stageOne(pf, "fam-1")
	// Wait until a window has taken the task.
	deadline := time.Now().Add(10 * time.Second)
	for waiting(pf) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("prefetcher never picked up the task")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()

	select {
	case <-runDone:
	case <-time.After(10 * time.Second):
		t.Fatal("prefetcher did not shut down after cancel")
	}
	// The task was dropped, and no result was reported for it.
	if pf.Pending() != 0 || len(out) != 0 {
		t.Fatalf("after cancel: %d tasks pending, %d results; want 0 and 0", pf.Pending(), len(out))
	}
	// No goroutine leak: the waiters are gone once the lingering
	// fabric job's stall elapses. goleak is unavailable here, so poll the
	// global count back to (at or below) its baseline with slack for
	// unrelated runtime goroutines.
	deadline = time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before+1 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: before=%d now=%d; prefetcher leaked", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPrefetcherCancelWhileIdle: cancelling an intake loop blocked on an
// empty intake also exits cleanly.
func TestPrefetcherCancelWhileIdle(t *testing.T) {
	_, pf := newPrefetchRig(t)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan struct{})
	go func() {
		pf.Run(ctx, 4)
		close(runDone)
	}()
	time.Sleep(10 * time.Millisecond) // let the intake loop reach its idle wait
	cancel()
	select {
	case <-runDone:
	case <-time.After(10 * time.Second):
		t.Fatal("idle prefetcher did not shut down")
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before+1 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: before=%d now=%d", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

package transfer

import (
	"context"
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"xtract/internal/clock"
	"xtract/internal/faultinject"
	"xtract/internal/queue"
	"xtract/internal/store"
)

// newPrefetchRig wires a fabric with two endpoints and a prefetcher over
// fresh queues. The caller runs the prefetcher.
func newPrefetchRig(t *testing.T) (*Fabric, *Prefetcher, *queue.Queue, *queue.Queue, *store.MemFS) {
	t.Helper()
	clk := clock.NewReal()
	fabric := NewFabric(clk)
	src := store.NewMemFS("src", nil)
	dst := store.NewMemFS("dst", nil)
	fabric.AddEndpoint("src", src)
	fabric.AddEndpoint("dst", dst)
	if err := src.Write("/d/a.bin", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	in := queue.New("prefetch-in", clk)
	out := queue.New("prefetch-out", clk)
	pf := NewPrefetcher(fabric, in, out, clk)
	return fabric, pf, in, out, src
}

func sendPrefetchTask(t *testing.T, in *queue.Queue, familyID string) {
	t.Helper()
	body, err := json.Marshal(PrefetchTask{
		FamilyID: familyID,
		Src:      "src",
		Dst:      "dst",
		Pairs:    []FilePair{{Src: "/d/a.bin", Dst: "/stage/d/a.bin"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	in.Send(body)
}

func recvPrefetchResult(t *testing.T, out *queue.Queue) PrefetchResult {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if msgs := out.Receive(1, time.Minute); len(msgs) == 1 {
			var res PrefetchResult
			if err := json.Unmarshal(msgs[0].Body, &res); err != nil {
				t.Fatal(err)
			}
			_ = out.Delete(msgs[0].Receipt)
			return res
		}
		if time.Now().After(deadline) {
			t.Fatal("no prefetch result arrived")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPrefetcherInjectedTransferError(t *testing.T) {
	fabric, pf, in, out, _ := newPrefetchRig(t)
	fabric.SetFaults(faultinject.New(faultinject.Config{
		Seed:          1,
		TransferError: faultinject.Rule{Prob: 1, Max: 1},
	}))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go pf.Run(ctx, 1)

	sendPrefetchTask(t, in, "fam-1")
	res := recvPrefetchResult(t, out)
	if res.OK {
		t.Fatalf("result OK despite injected transfer error: %+v", res)
	}
	if res.Err == "" {
		t.Fatal("failed result carries no error")
	}
	// Budget spent: a retry of the same route succeeds.
	sendPrefetchTask(t, in, "fam-1")
	res2 := recvPrefetchResult(t, out)
	if !res2.OK {
		t.Fatalf("post-budget staging failed: %+v", res2)
	}
	if res2.Bytes == 0 {
		t.Fatalf("post-budget staging moved no bytes: %+v", res2)
	}
}

// TestPrefetcherCancelMidFetch: cancelling the prefetcher while a fabric
// job is in flight hands the task back to the queue (Nack, not a result)
// and every prefetcher goroutine exits.
func TestPrefetcherCancelMidFetch(t *testing.T) {
	fabric, pf, in, out, _ := newPrefetchRig(t)
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

	sendPrefetchTask(t, in, "fam-1")
	// Wait until the task is picked up (in flight, not visible).
	deadline := time.Now().Add(10 * time.Second)
	for in.InFlight() == 0 {
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
	// The task went back to the queue for a future prefetcher, and no
	// result was reported for it.
	if in.Len() != 1 || in.InFlight() != 0 {
		t.Fatalf("queue after cancel: visible=%d inflight=%d, want 1/0", in.Len(), in.InFlight())
	}
	if out.Len() != 0 {
		t.Fatalf("cancelled fetch reported %d results", out.Len())
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
// empty queue also exits cleanly.
func TestPrefetcherCancelWhileIdle(t *testing.T) {
	_, pf, _, _, _ := newPrefetchRig(t)
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

package transfer

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"xtract/internal/clock"
	"xtract/internal/queue"
	"xtract/internal/store"
)

// pipelineRig is a prefetcher over a link whose only cost is its RTT,
// charged on a fake clock. The queues run on the real clock so that the
// fake clock's pending timers are exactly the fabric jobs asleep on the
// link: PendingTimers() == n means n jobs are in flight and none can
// finish until the test advances time.
type pipelineRig struct {
	clk    *clock.Fake
	fabric *Fabric
	pf     *Prefetcher
	in     *queue.Queue
	out    *queue.Queue
}

const rigRTT = 40 * time.Millisecond

func newPipelineRig(t testing.TB, outClk clock.Clock) *pipelineRig {
	return newPipelineRigOn(t, outClk, Link{RTT: rigRTT})
}

// rigFile is what a file of the streaming tests costs on streamLink.
const rigFile = time.Millisecond

// streamLink charges per file as well, so the files of one fabric job
// land one fake-clock step apart.
var streamLink = Link{RTT: rigRTT, PerFileOverhead: rigFile}

func newPipelineRigOn(t testing.TB, outClk clock.Clock, link Link) *pipelineRig {
	t.Helper()
	clk := clock.NewFake(time.Unix(1_700_000_000, 0))
	fabric := NewFabric(clk)
	src := store.NewMemFS("src", nil)
	fabric.AddEndpoint("src", src)
	fabric.AddEndpoint("dst", store.NewMemFS("dst", nil))
	fabric.SetLink("src", "dst", link)
	if err := src.Write("/d/a.bin", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	in := queue.New("prefetch-in", clock.NewReal())
	out := queue.New("prefetch-out", outClk)
	return &pipelineRig{clk: clk, fabric: fabric, pf: NewPrefetcher(fabric, in, out, clk), in: in, out: out}
}

// landFile waits for the one fabric job to park and lets its next
// charge (the RTT first, then a file at a time) come due.
func (r *pipelineRig) landFile(t testing.TB, d time.Duration) {
	t.Helper()
	eventually(t, "the job parked on the link", func() bool { return r.clk.PendingTimers() == 1 })
	r.clk.Advance(d)
}

// send enqueues n single-file staging tasks and returns their bodies.
func (r *pipelineRig) send(n int) [][]byte {
	bodies := make([][]byte, n)
	for i := range bodies {
		bodies[i] = AppendPrefetchTask(nil, &PrefetchTask{
			JobID: fmt.Sprintf("job-%d", i%2), FamilyID: fmt.Sprintf("fam-%d", i), Src: "src", Dst: "dst",
			Pairs: []FilePair{{Src: "/d/a.bin", Dst: fmt.Sprintf("/stage/%d/a.bin", i)}},
		})
	}
	r.in.SendBatch(bodies)
	return bodies
}

// run starts the prefetcher and returns a stop function that cancels it
// and waits for Run to return.
func (r *pipelineRig) run(inFlight int) (stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		r.pf.Run(ctx, inFlight)
		close(done)
	}()
	return func() {
		cancel()
		<-done
	}
}

// eventually polls cond on the real clock; every wait in these tests is
// for goroutines to reach a state, never for time to pass. It yields a
// few times before it sleeps: the state is usually one goroutine switch
// away, and a sleep costs a timer tick.
func eventually(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; !cond(); i++ {
		if i < 100 {
			runtime.Gosched()
			continue
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// results drains the done queue.
func (r *pipelineRig) results(t testing.TB) []PrefetchResult {
	t.Helper()
	var out []PrefetchResult
	for _, body := range r.out.Drain() {
		var res PrefetchResult
		if err := DecodePrefetchResult(body, &res); err != nil {
			t.Fatal(err)
		}
		out = append(out, res)
	}
	return out
}

// TestPrefetcherOverlapsWindows: 2k one-task windows over a link of RTT R
// with k jobs allowed in flight take two round trips, not 2k, and the
// bound holds: at each wave exactly k jobs exist and the rest of the
// queue is still visible, not held by an intake waiting for a slot.
func TestPrefetcherOverlapsWindows(t *testing.T) {
	const k = 5
	r := newPipelineRig(t, clock.NewReal())
	r.pf.BatchWindow = 1
	r.send(2 * k)
	start := r.clk.Now()
	stop := r.run(k)
	defer stop()

	for wave := 1; wave <= 2; wave++ {
		eventually(t, "k jobs asleep on the link", func() bool { return r.clk.PendingTimers() == k })
		if n := r.fabric.JobRecords(); n != k {
			t.Fatalf("wave %d: %d fabric jobs in flight, bound is %d", wave, n, k)
		}
		if held, visible := r.in.InFlight(), r.in.Len(); held != k || visible != (2-wave)*k {
			t.Fatalf("wave %d: %d tasks held, %d visible; want %d and %d", wave, held, visible, k, (2-wave)*k)
		}
		r.clk.Advance(rigRTT)
		eventually(t, "the wave's results", func() bool { return r.out.Len() == wave*k })
	}
	eventually(t, "all receipts deleted", func() bool { return r.in.InFlight() == 0 })

	if got := r.clk.Since(start); got != 2*rigRTT {
		t.Fatalf("2k windows took %v of link time, want %v", got, 2*rigRTT)
	}
	if n := r.fabric.JobRecords(); n != 0 {
		t.Fatalf("%d job records outlive their waiters", n)
	}
	res := r.results(t)
	if len(res) != 2*k {
		t.Fatalf("%d results, want %d", len(res), 2*k)
	}
	for _, x := range res {
		if !x.OK || x.Bytes != 10 || x.Elapsed != rigRTT {
			t.Fatalf("result = %+v, want OK, 10 bytes, elapsed %v", x, rigRTT)
		}
	}
	if r.pf.TasksDone.Load() != 2*k || r.pf.BytesMoved.Load() != 20*k {
		t.Fatalf("TasksDone = %d, BytesMoved = %d", r.pf.TasksDone.Load(), r.pf.BytesMoved.Load())
	}
}

// failOnce fails the first fabric job it is consulted for.
type failOnce struct{ fired atomic.Bool }

func (f *failOnce) TransferFault(src, dst string) (time.Duration, error) {
	if f.fired.CompareAndSwap(false, true) {
		return 0, fmt.Errorf("link %s->%s down", src, dst)
	}
	return 0, nil
}

// TestPrefetcherFailedJobFailsEveryTask: a failed fabric job yields one
// failed result per task of its window, with the job's error text, and
// acknowledges the tasks; sent again — what the pump's staging retry
// does — they stage.
func TestPrefetcherFailedJobFailsEveryTask(t *testing.T) {
	const n = 3
	r := newPipelineRig(t, clock.NewReal())
	r.fabric.SetFaults(&failOnce{})
	bodies := r.send(n)
	stop := r.run(2)
	defer stop()

	eventually(t, "the job asleep on the link", func() bool { return r.clk.PendingTimers() == 1 })
	r.clk.Advance(rigRTT)
	eventually(t, "failed results", func() bool { return r.out.Len() == n && r.in.InFlight() == 0 })
	res := r.results(t)
	seen := make(map[string]bool)
	for _, x := range res {
		if x.OK || x.Err != "link src->dst down" || x.Bytes != 0 {
			t.Fatalf("result = %+v, want failure carrying the job's error", x)
		}
		seen[x.FamilyID] = true
	}
	if len(seen) != n || r.pf.TasksFailed.Load() != n || r.pf.TasksDone.Load() != 0 {
		t.Fatalf("families = %d, TasksFailed = %d, TasksDone = %d", len(seen), r.pf.TasksFailed.Load(), r.pf.TasksDone.Load())
	}
	if r.in.Len() != 0 {
		t.Fatalf("%d failed tasks left on the queue; the retry is the pump's", r.in.Len())
	}

	r.in.SendBatch(bodies)
	eventually(t, "the retry asleep on the link", func() bool { return r.clk.PendingTimers() == 1 })
	r.clk.Advance(rigRTT)
	eventually(t, "retried results", func() bool { return r.out.Len() == n })
	for _, x := range r.results(t) {
		if !x.OK {
			t.Fatalf("retried task failed: %+v", x)
		}
	}
}

// sendSpy is the done queue's clock: the queue reads it once per message
// sent, which lets the test look at the input queue at that instant.
type sendSpy struct {
	clock.Clock
	onNow func()
}

func (s sendSpy) Now() time.Time {
	s.onNow()
	return s.Clock.Now()
}

// TestPrefetcherSendsBeforeDelete: at the moment each result goes onto
// the done queue, its window's receipts are all still held. A crash
// between the two steps redelivers tasks; it never loses a result.
func TestPrefetcherSendsBeforeDelete(t *testing.T) {
	const n = 4
	var in *queue.Queue
	var sends, early atomic.Int64
	r := newPipelineRig(t, sendSpy{Clock: clock.NewReal(), onNow: func() {
		sends.Add(1)
		if _, deleted := in.Stats(); deleted != 0 || in.InFlight() != n {
			early.Add(1)
		}
	}})
	in = r.in
	r.send(n)
	stop := r.run(1)
	defer stop()

	eventually(t, "the job asleep on the link", func() bool { return r.clk.PendingTimers() == 1 })
	r.clk.Advance(rigRTT)
	eventually(t, "receipts deleted", func() bool { _, deleted := r.in.Stats(); return deleted == n })
	if sends.Load() != n {
		t.Fatalf("done queue saw %d sends before the deletes finished, want %d", sends.Load(), n)
	}
	if early.Load() != 0 {
		t.Fatalf("%d results were sent after their receipts had been deleted", early.Load())
	}
}

// TestPrefetcherCancelNacksEveryWindow: cancelling with k jobs in flight
// hands every held task back, reports nothing, and Run returns only once
// every waiter has exited — so all of that is already true when it does.
func TestPrefetcherCancelNacksEveryWindow(t *testing.T) {
	const k = 4
	r := newPipelineRig(t, clock.NewReal())
	r.pf.BatchWindow = 1
	r.send(2 * k)
	stop := r.run(k)
	eventually(t, "k jobs asleep on the link", func() bool { return r.clk.PendingTimers() == k })
	stop()

	if held, visible := r.in.InFlight(), r.in.Len(); held != 0 || visible != 2*k {
		t.Fatalf("after Run returned: %d tasks held, %d visible; want 0 and %d", held, visible, 2*k)
	}
	if n := r.out.Len(); n != 0 {
		t.Fatalf("cancelled prefetcher reported %d results", n)
	}
	if n := r.fabric.JobRecords(); n != 0 {
		t.Fatalf("%d waiters still hold their job", n)
	}
	r.clk.Advance(rigRTT) // let the abandoned fabric jobs run out
}

// BenchmarkPrefetcherStage is the prefetcher's cost per staged task on a
// free link with the deployment's bound: queue receive, one fabric job
// per window, batched report and acknowledgement.
func BenchmarkPrefetcherStage(b *testing.B) {
	clk := clock.NewReal()
	fabric := NewFabric(clk)
	src := store.NewMemFS("src", nil)
	fabric.AddEndpoint("src", src)
	fabric.AddEndpoint("dst", store.NewMemFS("dst", nil))
	if err := src.Write("/d/a.bin", make([]byte, 1024)); err != nil {
		b.Fatal(err)
	}
	in := queue.New("prefetch-in", clk)
	out := queue.New("prefetch-out", clk)
	pf := NewPrefetcher(fabric, in, out, clk)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		pf.Run(ctx, 10)
		close(done)
	}()
	defer func() {
		cancel()
		<-done
	}()
	body := AppendPrefetchTask(nil, &PrefetchTask{
		FamilyID: "fam", Src: "src", Dst: "dst",
		Pairs: []FilePair{{Src: "/d/a.bin", Dst: "/stage/d/a.bin"}},
	})
	b.ReportAllocs()
	b.ResetTimer()
	go func() {
		for i := 0; i < b.N; i++ {
			in.Send(body)
		}
	}()
	var acks []string
	for got := 0; got < b.N; {
		msgs := out.Receive(64, time.Minute)
		if len(msgs) == 0 {
			<-out.Ready()
			continue
		}
		acks = acks[:0]
		for _, m := range msgs {
			acks = append(acks, m.Receipt)
		}
		out.DeleteBatch(acks)
		got += len(msgs)
	}
}

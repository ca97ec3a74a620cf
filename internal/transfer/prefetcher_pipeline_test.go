package transfer

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xtract/internal/clock"
	"xtract/internal/store"
)

// pipelineRig is a prefetcher over a link whose only cost is its RTT,
// charged on a fake clock, so that the fake clock's pending timers are
// exactly the fabric jobs asleep on the link: PendingTimers() == n means n
// jobs are in flight and none can finish until the test advances time.
// Every task it stages reports into got.
type pipelineRig struct {
	clk    *clock.Fake
	fabric *Fabric
	pf     *Prefetcher
	mu     sync.Mutex
	got    []PrefetchResult
}

const rigRTT = 40 * time.Millisecond

func newPipelineRig(t testing.TB) *pipelineRig {
	return newPipelineRigOn(t, Link{RTT: rigRTT})
}

// rigFile is what a file of the streaming tests costs on streamLink.
const rigFile = time.Millisecond

// streamLink charges per file as well, so the files of one fabric job
// land one fake-clock step apart.
var streamLink = Link{RTT: rigRTT, PerFileOverhead: rigFile}

func newPipelineRigOn(t testing.TB, link Link) *pipelineRig {
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
	return &pipelineRig{clk: clk, fabric: fabric, pf: NewPrefetcher(fabric, clk)}
}

// landFile waits for the one fabric job to park and lets its next
// charge (the RTT first, then a file at a time) come due.
func (r *pipelineRig) landFile(t testing.TB, d time.Duration) {
	t.Helper()
	eventually(t, "the job parked on the link", func() bool { return r.clk.PendingTimers() == 1 })
	r.clk.Advance(d)
}

// stage hands over one task per pair list, in order, named fam-<i>.
func (r *pipelineRig) stage(pairs ...[]FilePair) {
	for i, ps := range pairs {
		r.pf.Stage(PrefetchTask{FamilyID: fmt.Sprintf("fam-%d", i), Src: "src", Dst: "dst", Pairs: ps}, r.report)
	}
}

// send hands over n single-file staging tasks.
func (r *pipelineRig) send(n int) {
	pairs := make([][]FilePair, n)
	for i := range pairs {
		pairs[i] = []FilePair{{Src: "/d/a.bin", Dst: fmt.Sprintf("/stage/%d/a.bin", i)}}
	}
	r.stage(pairs...)
}

func (r *pipelineRig) report(res PrefetchResult) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.got = append(r.got, res)
}

// reported counts the results not yet taken by results.
func (r *pipelineRig) reported() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.got)
}

// waiting counts the tasks no window of p's has taken.
func waiting(p *Prefetcher) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.intake)
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

// results takes the results reported so far, in report order.
func (r *pipelineRig) results() []PrefetchResult {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := r.got
	r.got = nil
	return out
}

// TestPrefetcherOverlapsWindows: 2k one-task windows over a link of RTT R
// with k jobs allowed in flight take two round trips, not 2k, and the
// bound holds: at each wave exactly k jobs exist and the rest of the
// tasks are still waiting, not held by an intake waiting for a slot.
func TestPrefetcherOverlapsWindows(t *testing.T) {
	const k = 5
	r := newPipelineRig(t)
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
		if held, waiting := int(r.pf.Pending())-waiting(r.pf), waiting(r.pf); held != k || waiting != (2-wave)*k {
			t.Fatalf("wave %d: %d tasks held, %d waiting; want %d and %d", wave, held, waiting, k, (2-wave)*k)
		}
		r.clk.Advance(rigRTT)
		eventually(t, "the wave's results", func() bool { return r.reported() == wave*k })
	}
	eventually(t, "every task reported", func() bool { return r.pf.Pending() == 0 })

	if got := r.clk.Since(start); got != 2*rigRTT {
		t.Fatalf("2k windows took %v of link time, want %v", got, 2*rigRTT)
	}
	if n := r.fabric.JobRecords(); n != 0 {
		t.Fatalf("%d job records outlive their waiters", n)
	}
	res := r.results()
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
// keeps none of them; handed over again — what the pump's staging retry
// does — they stage.
func TestPrefetcherFailedJobFailsEveryTask(t *testing.T) {
	const n = 3
	r := newPipelineRig(t)
	r.fabric.SetFaults(&failOnce{})
	r.send(n)
	stop := r.run(2)
	defer stop()

	eventually(t, "the job asleep on the link", func() bool { return r.clk.PendingTimers() == 1 })
	r.clk.Advance(rigRTT)
	eventually(t, "failed results", func() bool { return r.reported() == n && r.pf.Pending() == 0 })
	res := r.results()
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

	r.send(n)
	eventually(t, "the retry asleep on the link", func() bool { return r.clk.PendingTimers() == 1 })
	r.clk.Advance(rigRTT)
	eventually(t, "retried results", func() bool { return r.reported() == n })
	for _, x := range r.results() {
		if !x.OK {
			t.Fatalf("retried task failed: %+v", x)
		}
	}
}

// BenchmarkPrefetcherStage is the prefetcher's cost per staged task on a
// free link with the deployment's bound: intake, one fabric job per
// window, one report per task.
func BenchmarkPrefetcherStage(b *testing.B) {
	clk := clock.NewReal()
	fabric := NewFabric(clk)
	src := store.NewMemFS("src", nil)
	fabric.AddEndpoint("src", src)
	fabric.AddEndpoint("dst", store.NewMemFS("dst", nil))
	if err := src.Write("/d/a.bin", make([]byte, 1024)); err != nil {
		b.Fatal(err)
	}
	pf := NewPrefetcher(fabric, clk)
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
	task := PrefetchTask{
		FamilyID: "fam", Src: "src", Dst: "dst",
		Pairs: []FilePair{{Src: "/d/a.bin", Dst: "/stage/d/a.bin"}},
	}
	var reports sync.WaitGroup
	reports.Add(b.N)
	report := func(PrefetchResult) { reports.Done() }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pf.Stage(task, report)
	}
	reports.Wait()
}

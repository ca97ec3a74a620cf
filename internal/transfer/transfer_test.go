package transfer

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"xtract/internal/clock"
	"xtract/internal/queue"
	"xtract/internal/store"
)

func newLiveFabric() (*Fabric, *store.MemFS, *store.MemFS) {
	clk := clock.NewReal()
	f := NewFabric(clk)
	src := store.NewMemFS("src", nil)
	dst := store.NewMemFS("dst", nil)
	f.AddEndpoint("src", src)
	f.AddEndpoint("dst", dst)
	return f, src, dst
}

func TestSubmitAndWait(t *testing.T) {
	f, src, dst := newLiveFabric()
	if err := src.Write("/a.txt", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	id, err := f.Submit("src", "dst", []FilePair{{Src: "/a.txt", Dst: "/staged/a.txt"}})
	if err != nil {
		t.Fatal(err)
	}
	info, err := f.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != StatusSucceeded {
		t.Fatalf("status = %v, err %q", info.Status, info.Err)
	}
	if info.FilesDone != 1 || info.BytesTransferred != 5 {
		t.Fatalf("info = %+v", info)
	}
	got, err := dst.Read("/staged/a.txt")
	if err != nil || string(got) != "hello" {
		t.Fatalf("dst read = %q, %v", got, err)
	}
}

func TestSubmitUnknownEndpoint(t *testing.T) {
	f, _, _ := newLiveFabric()
	if _, err := f.Submit("nope", "dst", nil); !errors.Is(err, ErrNoEndpoint) {
		t.Fatalf("err = %v", err)
	}
	if _, err := f.Submit("src", "nope", nil); !errors.Is(err, ErrNoEndpoint) {
		t.Fatalf("err = %v", err)
	}
}

func TestJobFailsOnMissingFile(t *testing.T) {
	f, _, _ := newLiveFabric()
	id, err := f.Submit("src", "dst", []FilePair{{Src: "/missing", Dst: "/x"}})
	if err != nil {
		t.Fatal(err)
	}
	info, err := f.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.Status != StatusFailed || info.Err == "" {
		t.Fatalf("info = %+v", info)
	}
}

func TestWaitUnknownJob(t *testing.T) {
	f, _, _ := newLiveFabric()
	if _, err := f.Wait("bogus"); !errors.Is(err, ErrNoJob) {
		t.Fatalf("err = %v", err)
	}
}

func TestBatchTransferManyFiles(t *testing.T) {
	f, src, dst := newLiveFabric()
	var pairs []FilePair
	for i := 0; i < 200; i++ {
		p := fmt.Sprintf("/data/f%03d.bin", i)
		if err := src.Write(p, []byte(strings.Repeat("x", i))); err != nil {
			t.Fatal(err)
		}
		pairs = append(pairs, FilePair{Src: p, Dst: p})
	}
	id, _ := f.Submit("src", "dst", pairs)
	info, _ := f.Wait(id)
	if info.Status != StatusSucceeded || info.FilesDone != 200 {
		t.Fatalf("info = %+v", info)
	}
	_, files := dst.TotalBytes()
	if files != 200 {
		t.Fatalf("dst files = %d", files)
	}
}

func TestFetch(t *testing.T) {
	f, src, _ := newLiveFabric()
	_ = src.Write("/f", []byte("payload"))
	got, err := f.Fetch("src", "/f")
	if err != nil || string(got) != "payload" {
		t.Fatalf("Fetch = %q, %v", got, err)
	}
	if _, err := f.Fetch("nope", "/f"); !errors.Is(err, ErrNoEndpoint) {
		t.Fatalf("err = %v", err)
	}
}

func TestLinkTimingVirtual(t *testing.T) {
	clk := clock.NewFake(time.Unix(0, 0))
	f := NewFabric(clk)
	src := store.NewMemFS("src", clk.Now)
	dst := store.NewMemFS("dst", clk.Now)
	f.AddEndpoint("src", src)
	f.AddEndpoint("dst", dst)
	// 1 KB/s, 1 s RTT, 0.5 s per file.
	f.SetLink("src", "dst", Link{BytesPerSec: 1024, RTT: time.Second, PerFileOverhead: 500 * time.Millisecond})
	_ = src.Write("/f", make([]byte, 2048)) // 2 s payload

	id, err := f.Submit("src", "dst", []FilePair{{Src: "/f", Dst: "/f"}})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan JobInfo, 1)
	go func() {
		info, _ := f.Wait(id)
		done <- info
	}()
	// Total virtual time: 1 (RTT) + 0.5 (per file) + 2 (payload) = 3.5 s.
	deadline := time.After(5 * time.Second)
	for {
		select {
		case info := <-done:
			if info.Status != StatusSucceeded {
				t.Fatalf("status %v", info.Status)
			}
			if got := clk.Now().Sub(time.Unix(0, 0)); got != 3500*time.Millisecond {
				t.Fatalf("virtual elapsed = %v, want 3.5s", got)
			}
			return
		case <-deadline:
			t.Fatal("transfer did not finish")
		default:
			if clk.PendingTimers() > 0 {
				clk.Advance(100 * time.Millisecond)
			} else {
				time.Sleep(time.Millisecond)
			}
		}
	}
}

func TestConcurrentJobsShareLink(t *testing.T) {
	// Two jobs on the same link must serialize payload time: total wall
	// time approximately equals total bytes / rate, not half.
	clk := clock.NewFake(time.Unix(0, 0))
	f := NewFabric(clk)
	src := store.NewMemFS("src", clk.Now)
	dst := store.NewMemFS("dst", clk.Now)
	f.AddEndpoint("src", src)
	f.AddEndpoint("dst", dst)
	f.SetLink("src", "dst", Link{BytesPerSec: 1000})
	_ = src.Write("/a", make([]byte, 1000))
	_ = src.Write("/b", make([]byte, 1000))

	id1, _ := f.Submit("src", "dst", []FilePair{{Src: "/a", Dst: "/a"}})
	id2, _ := f.Submit("src", "dst", []FilePair{{Src: "/b", Dst: "/b"}})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); _, _ = f.Wait(id1) }()
	go func() { defer wg.Done(); _, _ = f.Wait(id2) }()
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	for {
		select {
		case <-finished:
			if got := clk.Since(time.Unix(0, 0)); got < 2*time.Second {
				t.Fatalf("shared link finished in %v, want >= 2s", got)
			}
			return
		default:
			if clk.PendingTimers() > 0 {
				clk.Advance(50 * time.Millisecond)
			} else {
				time.Sleep(time.Millisecond)
			}
		}
	}
}

func TestEndpointsList(t *testing.T) {
	f, _, _ := newLiveFabric()
	eps := f.Endpoints()
	if len(eps) != 2 {
		t.Fatalf("endpoints = %v", eps)
	}
}

func TestStatusString(t *testing.T) {
	if StatusPending.String() != "PENDING" || StatusSucceeded.String() != "SUCCEEDED" ||
		StatusActive.String() != "ACTIVE" || StatusFailed.String() != "FAILED" {
		t.Fatal("status strings wrong")
	}
	if Status(42).String() == "" {
		t.Fatal("unknown status should still render")
	}
}

func TestPrefetcherEndToEnd(t *testing.T) {
	clk := clock.NewReal()
	f := NewFabric(clk)
	src := store.NewMemFS("petrel", nil)
	dst := store.NewMemFS("midway", nil)
	f.AddEndpoint("petrel", src)
	f.AddEndpoint("midway", dst)

	in := queue.New("prefetch", clk)
	out := queue.New("ready", clk)
	p := NewPrefetcher(f, in, out, clk)

	const families = 20
	for i := 0; i < families; i++ {
		path := fmt.Sprintf("/mdf/fam%d/data.csv", i)
		if err := src.Write(path, []byte("a,b\n1,2\n")); err != nil {
			t.Fatal(err)
		}
		task := PrefetchTask{
			FamilyID: fmt.Sprintf("fam%d", i),
			Src:      "petrel", Dst: "midway",
			Pairs: []FilePair{{Src: path, Dst: path}},
		}
		body, _ := json.Marshal(task)
		in.Send(body)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go p.Run(ctx, 2)

	deadline := time.Now().Add(10 * time.Second)
	for out.Len() < families {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d results", out.Len(), families)
		}
		time.Sleep(time.Millisecond)
	}
	cancel()

	results := out.Drain()
	okCount := 0
	for _, body := range results {
		var r PrefetchResult
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		if r.OK {
			okCount++
		}
	}
	if okCount != families {
		t.Fatalf("ok = %d, want %d", okCount, families)
	}
	if p.TasksDone.Load() != families {
		t.Fatalf("TasksDone = %d", p.TasksDone.Load())
	}
	_, files := dst.TotalBytes()
	if files != families {
		t.Fatalf("staged files = %d", files)
	}
}

func TestPrefetcherReportsFailure(t *testing.T) {
	clk := clock.NewReal()
	f := NewFabric(clk)
	f.AddEndpoint("a", store.NewMemFS("a", nil))
	f.AddEndpoint("b", store.NewMemFS("b", nil))
	in := queue.New("prefetch", clk)
	out := queue.New("ready", clk)
	p := NewPrefetcher(f, in, out, clk)

	body, _ := json.Marshal(PrefetchTask{
		FamilyID: "f1", Src: "a", Dst: "b",
		Pairs: []FilePair{{Src: "/does-not-exist", Dst: "/x"}},
	})
	in.Send(body)
	ctx, cancel := context.WithCancel(context.Background())
	go p.Run(ctx, 1)
	deadline := time.Now().Add(5 * time.Second)
	for out.Len() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no result")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	var r PrefetchResult
	_ = json.Unmarshal(out.Drain()[0], &r)
	if r.OK || r.Err == "" {
		t.Fatalf("result = %+v, want failure", r)
	}
	if p.TasksFailed.Load() != 1 {
		t.Fatalf("TasksFailed = %d", p.TasksFailed.Load())
	}
}

func TestPrefetcherDropsPoisonMessage(t *testing.T) {
	clk := clock.NewReal()
	f := NewFabric(clk)
	in := queue.New("prefetch", clk)
	out := queue.New("ready", clk)
	p := NewPrefetcher(f, in, out, clk)
	in.Send([]byte("{not json"))
	ctx, cancel := context.WithCancel(context.Background())
	go p.Run(ctx, 1)
	deadline := time.Now().Add(2 * time.Second)
	for in.Len() > 0 || in.InFlight() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("poison message not consumed")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if out.Len() != 0 {
		t.Fatal("poison message produced a result")
	}
}

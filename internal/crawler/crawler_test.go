package crawler

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xtract/internal/cache"
	"xtract/internal/clock"
	"xtract/internal/extractors"
	"xtract/internal/family"
	"xtract/internal/queue"
	"xtract/internal/store"
)

func buildTree(t *testing.T) *store.MemFS {
	t.Helper()
	fs := store.NewMemFS("petrel", nil)
	writes := map[string]string{
		"/data/exp1/INCAR":      "ENCUT = 520\n",
		"/data/exp1/POSCAR":     "si\n1.0\n1 0 0\n0 1 0\n0 0 1\nSi\n1\nDirect\n0 0 0\n",
		"/data/exp1/OUTCAR":     "free  energy   TOTEN  = -1.0 eV\n",
		"/data/exp1/notes.txt":  "relaxation notes for silicon",
		"/data/exp2/run.csv":    "a,b\n1,2\n",
		"/data/exp2/plot.png":   "fakepng",
		"/data/readme.md":       "materials data facility subset",
		"/other/deep/nest/x.py": "import os\n",
	}
	for p, content := range writes {
		if err := fs.Write(p, []byte(content)); err != nil {
			t.Fatal(err)
		}
	}
	return fs
}

func drainFamilies(t *testing.T, q *queue.Queue) []family.Family {
	t.Helper()
	var out []family.Family
	for _, body := range q.Drain() {
		var f family.Family
		if err := json.Unmarshal(body, &f); err != nil {
			t.Fatal(err)
		}
		out = append(out, f)
	}
	return out
}

func TestCrawlFindsAllFiles(t *testing.T) {
	fs := buildTree(t)
	out := queue.New("families", clock.NewReal())
	c := New(fs, SingleFileGrouper(extractors.DefaultLibrary()), out)
	stats, err := c.Crawl(context.Background(), []string{"/"})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FilesSeen != 8 {
		t.Fatalf("FilesSeen = %d, want 8", stats.FilesSeen)
	}
	if stats.DirsListed != 6 { // /, /data, /data/exp1, /data/exp2, /other, /other/deep, /other/deep/nest = 7? count below
		// directories: / , /data, /data/exp1, /data/exp2, /other, /other/deep, /other/deep/nest
		if stats.DirsListed != 7 {
			t.Fatalf("DirsListed = %d", stats.DirsListed)
		}
	}
	fams := drainFamilies(t, out)
	total := 0
	for _, f := range fams {
		total += len(f.Groups)
	}
	if total != 8 {
		t.Fatalf("groups across families = %d, want 8", total)
	}
	// Every family carries store, base path, and file metadata.
	for _, f := range fams {
		if f.Store != "petrel" || f.BasePath == "" {
			t.Fatalf("family missing provenance: %+v", f)
		}
		for _, g := range f.Groups {
			for _, p := range g.Files {
				if _, ok := f.Meta(p); !ok {
					t.Fatalf("family %s missing FileMeta for %s", f.ID, p)
				}
			}
		}
	}
}

// Stats is one crawl's: a second crawl on the same crawler reports the
// same numbers as the first, while the shared Totals hold both.
func TestSecondCrawlReportsItsOwnStats(t *testing.T) {
	c := New(buildTree(t), SingleFileGrouper(extractors.DefaultLibrary()), queue.New("families", clock.NewReal()))
	c.Fingerprint, c.Totals = true, &Totals{}
	first, err := c.Crawl(context.Background(), []string{"/"})
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Crawl(context.Background(), []string{"/"})
	if err != nil {
		t.Fatal(err)
	}
	if first != second || first.DirsListed != 7 || first.FilesHashed != 8 || first.GroupsFormed != 8 {
		t.Fatalf("first crawl %+v, second crawl %+v", first, second)
	}
	if dirs, files := c.Totals.DirsListed.Load(), c.Totals.FilesSeen.Load(); dirs != 14 || files != 16 {
		t.Fatalf("totals after two crawls: %d dirs, %d files", dirs, files)
	}
}

func TestCrawlAssignsExtractors(t *testing.T) {
	fs := buildTree(t)
	out := queue.New("families", clock.NewReal())
	c := New(fs, SingleFileGrouper(extractors.DefaultLibrary()), out)
	if _, err := c.Crawl(context.Background(), []string{"/"}); err != nil {
		t.Fatal(err)
	}
	byFile := make(map[string]string)
	for _, f := range drainFamilies(t, out) {
		for _, g := range f.Groups {
			for _, p := range g.Files {
				byFile[p] = g.Extractor
			}
		}
	}
	want := map[string]string{
		"/data/exp1/INCAR":      "matio",
		"/data/exp2/run.csv":    "tabular",
		"/data/exp2/plot.png":   "imagesort",
		"/other/deep/nest/x.py": "pycode",
	}
	for p, ext := range want {
		if byFile[p] != ext {
			t.Errorf("extractor for %s = %q, want %q", p, byFile[p], ext)
		}
	}
}

func TestMatIOGrouperBundlesVASP(t *testing.T) {
	fs := buildTree(t)
	out := queue.New("families", clock.NewReal())
	c := New(fs, MatIOGrouper(extractors.DefaultLibrary()), out)
	if _, err := c.Crawl(context.Background(), []string{"/data/exp1"}); err != nil {
		t.Fatal(err)
	}
	fams := drainFamilies(t, out)
	var vaspGroup, aseGroup *family.Group
	for i := range fams {
		for j := range fams[i].Groups {
			g := &fams[i].Groups[j]
			switch g.Extractor {
			case "matio":
				vaspGroup = g
			case "ase":
				aseGroup = g
			}
		}
	}
	if vaspGroup == nil || len(vaspGroup.Files) != 3 {
		t.Fatalf("vasp group = %+v", vaspGroup)
	}
	if aseGroup == nil || len(aseGroup.Files) != 1 {
		t.Fatalf("ase group = %+v", aseGroup)
	}
	// The VASP and ASE groups share POSCAR, so min-transfers must put
	// them in the same family.
	foundTogether := false
	for _, f := range fams {
		hasVasp, hasASE := false, false
		for _, g := range f.Groups {
			if g.Extractor == "matio" {
				hasVasp = true
			}
			if g.Extractor == "ase" {
				hasASE = true
			}
		}
		if hasVasp && hasASE {
			foundTogether = true
		}
	}
	if !foundTogether {
		t.Fatal("overlapping vasp/ase groups split across families")
	}
}

func TestExtensionGrouper(t *testing.T) {
	lib := extractors.DefaultLibrary()
	files := []store.FileInfo{
		{Path: "/d/a.csv", Name: "a.csv", Extension: "csv"},
		{Path: "/d/b.csv", Name: "b.csv", Extension: "csv"},
		{Path: "/d/c.txt", Name: "c.txt", Extension: "txt"},
		{Path: "/d/noext", Name: "noext"},
	}
	groups := ExtensionGrouper(lib)("/d", files)
	if len(groups) != 3 {
		t.Fatalf("groups = %d, want 3", len(groups))
	}
	// Sorted: <none>, csv, txt
	if len(groups[1].Files) != 2 || groups[1].Extractor != "tabular" {
		t.Fatalf("csv group = %+v", groups[1])
	}
}

func TestDirectoryGrouper(t *testing.T) {
	lib := extractors.DefaultLibrary()
	files := []store.FileInfo{
		{Path: "/d/a.csv", Name: "a.csv", Extension: "csv"},
		{Path: "/d/b.txt", Name: "b.txt", Extension: "txt"},
	}
	groups := DirectoryGrouper(lib)("/d", files)
	if len(groups) != 1 || len(groups[0].Files) != 2 {
		t.Fatalf("groups = %+v", groups)
	}
}

func TestCrawlParallelSpeedupOnSlowStore(t *testing.T) {
	// On a latency-injected store, 8 workers must finish a wide crawl in
	// much less virtual time than 1 worker (the Figure 4 effect).
	timeFor := func(workers int) time.Duration {
		clk := clock.NewFake(time.Unix(0, 0))
		inner := store.NewMemFS("slow", clk.Now)
		for i := 0; i < 32; i++ {
			if err := inner.Write(fmt.Sprintf("/root/d%02d/f.txt", i), []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
		slow := store.WithLatency(inner, clk, store.LatencyProfile{ListRTT: 100 * time.Millisecond})
		out := queue.New("families", clk)
		c := New(slow, SingleFileGrouper(extractors.DefaultLibrary()), out)
		c.Workers = workers
		start := clk.Now()
		done := make(chan struct{})
		go func() {
			if _, err := c.Crawl(context.Background(), []string{"/root"}); err != nil {
				t.Error(err)
			}
			close(done)
		}()
		for {
			select {
			case <-done:
				return clk.Since(start)
			default:
				if clk.PendingTimers() > 0 {
					clk.Advance(10 * time.Millisecond)
				} else {
					time.Sleep(100 * time.Microsecond)
				}
			}
		}
	}
	serial := timeFor(1)
	parallel := timeFor(8)
	if parallel >= serial {
		t.Fatalf("8 workers (%v) not faster than 1 (%v)", parallel, serial)
	}
	if serial < 3*parallel {
		t.Fatalf("speedup too small: serial %v, parallel %v", serial, parallel)
	}
}

func TestCrawlContextCancel(t *testing.T) {
	fs := buildTree(t)
	out := queue.New("families", clock.NewReal())
	c := New(fs, SingleFileGrouper(extractors.DefaultLibrary()), out)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Crawl(ctx, []string{"/"}); err == nil {
		t.Fatal("expected context error")
	}
}

// A sink that has no room blocks the crawl — the listing stops with one
// directory in each worker's hands — and cancellation is what releases a
// worker blocked there: Crawl returns the context's error, lists nothing
// more and leaves no goroutine behind.
func TestCrawlBlockedOnItsSinkIsReleasedByCancel(t *testing.T) {
	const workers = 3
	fs := store.NewMemFS("petrel", nil)
	for i := 0; i < 200; i++ {
		if err := fs.Write(fmt.Sprintf("/r/d%03d/f.txt", i), []byte("words")); err != nil {
			t.Fatal(err)
		}
	}
	src := &listCounter{Store: fs}
	goroutines := runtime.NumGoroutine()
	blocked := make(chan struct{}, workers)
	c := NewTo(src, SingleFileGrouper(extractors.DefaultLibrary()), func(ctx context.Context, fams []family.Family) int {
		blocked <- struct{}{}
		<-ctx.Done()
		return 0
	})
	c.Workers = workers
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Crawl(ctx, []string{"/r"})
		done <- err
	}()
	for i := 0; i < workers; i++ {
		<-blocked
	}
	if got := src.lists.Load(); got != 1+workers {
		t.Fatalf("%d listings with every worker blocked on the sink, want the root and %d directories", got, workers)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Crawl = %v, want context.Canceled", err)
	}
	if got := src.lists.Load(); got != 1+workers {
		t.Fatalf("%d listings after cancellation, want still %d", got, 1+workers)
	}
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the crawl", runtime.NumGoroutine(), goroutines)
		}
	}
}

// listCounter counts the listings that reach the store.
type listCounter struct {
	store.Store
	lists atomic.Int64
}

func (l *listCounter) List(dir string) ([]store.FileInfo, error) {
	l.lists.Add(1)
	return l.Store.List(dir)
}

// listGauge counts the listings in flight and the most there ever were.
// Until open is closed, every listing but the root's waits there, so a
// crawl that can list in parallel is seen to.
type listGauge struct {
	store.Store
	root           string
	inflight, peak atomic.Int32
	open           chan struct{}
}

func (g *listGauge) List(dir string) ([]store.FileInfo, error) {
	n := g.inflight.Add(1)
	defer g.inflight.Add(-1)
	for p := g.peak.Load(); n > p && !g.peak.CompareAndSwap(p, n); p = g.peak.Load() {
	}
	if dir != g.root {
		<-g.open
	}
	return g.Store.List(dir)
}

// TestOneDirectoryCrawlStartsOneWorker: workers start as directories
// queue, so a crawl of a repository that is one directory runs one
// worker and one listing at a time, whatever Workers allows.
func TestOneDirectoryCrawlStartsOneWorker(t *testing.T) {
	fs := store.NewMemFS("petrel", nil)
	for i := 0; i < 20; i++ {
		if err := fs.Write(fmt.Sprintf("/r/f%02d.txt", i), []byte("words")); err != nil {
			t.Fatal(err)
		}
	}
	listing := make(chan struct{})
	g := &listGauge{Store: fs, root: "/r", open: make(chan struct{})}
	close(g.open)
	c := NewTo(&signalStore{Store: g, listing: listing}, SingleFileGrouper(extractors.DefaultLibrary()),
		func(_ context.Context, fams []family.Family) int { return len(fams) })
	c.Workers = 16
	goroutines := runtime.NumGoroutine()
	done := make(chan Stats, 1)
	go func() {
		stats, err := c.Crawl(context.Background(), []string{"/r"})
		if err != nil {
			t.Error(err)
		}
		done <- stats
	}()
	<-listing // the root's listing is under way: every worker the crawl starts for it has started
	if n := runtime.NumGoroutine() - goroutines; n > 2 {
		t.Errorf("%d goroutines during a one-directory crawl, want the crawl's and one worker's", n)
	}
	listing <- struct{}{}
	if stats := <-done; stats.FilesSeen != 20 || stats.DirsListed != 1 {
		t.Fatalf("stats = %+v, want 20 files in one directory", stats)
	}
	if p := g.peak.Load(); p != 1 {
		t.Fatalf("%d listings at once, want 1", p)
	}
}

// signalStore announces each listing on listing and waits there for the
// test's go-ahead.
type signalStore struct {
	store.Store
	listing chan struct{}
}

func (s *signalStore) List(dir string) ([]store.FileInfo, error) {
	s.listing <- struct{}{}
	<-s.listing
	return s.Store.List(dir)
}

// TestWideTreeReachesItsWorkers: a root with eight subdirectories and
// Workers: 4 starts its workers as the root's listing queues them, and
// lists four directories at once, never more.
func TestWideTreeReachesItsWorkers(t *testing.T) {
	fs := store.NewMemFS("petrel", nil)
	for i := 0; i < 8; i++ {
		if err := fs.Write(fmt.Sprintf("/r/d%d/f.txt", i), []byte("words")); err != nil {
			t.Fatal(err)
		}
	}
	g := &listGauge{Store: fs, root: "/r", open: make(chan struct{})}
	c := NewTo(g, SingleFileGrouper(extractors.DefaultLibrary()),
		func(_ context.Context, fams []family.Family) int { return len(fams) })
	c.Workers = 4
	done := make(chan Stats, 1)
	go func() {
		stats, err := c.Crawl(context.Background(), []string{"/r"})
		if err != nil {
			t.Error(err)
		}
		done <- stats
	}()
	for deadline := time.Now().Add(10 * time.Second); g.inflight.Load() < 4; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d listings at once after 10 s, want 4", g.inflight.Load())
		}
	}
	close(g.open)
	if stats := <-done; stats.DirsListed != 9 || stats.FilesSeen != 8 {
		t.Fatalf("stats = %+v, want 9 directories and 8 files", stats)
	}
	if p := g.peak.Load(); p != 4 {
		t.Fatalf("%d listings at once, want 4", p)
	}
}

func TestCrawlMissingRoot(t *testing.T) {
	fs := store.NewMemFS("empty", nil)
	out := queue.New("families", clock.NewReal())
	c := New(fs, SingleFileGrouper(extractors.DefaultLibrary()), out)
	stats, err := c.Crawl(context.Background(), []string{"/does/not/exist"})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ListErrors != 1 || stats.FilesSeen != 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestEveryRootIsListed: a root that lists at once (missing, empty) does
// not end the crawl before the roots after it are listed, whether one
// worker or several may run. A queue that let the first root's worker
// drain it before the second root queued would lose that root when the
// worker won the race, so /r is spelled long, to take a while to clean,
// and each crawl is repeated.
func TestEveryRootIsListed(t *testing.T) {
	fs := store.NewMemFS("petrel", nil)
	if err := fs.Write("/r/f.txt", []byte("words")); err != nil {
		t.Fatal(err)
	}
	r := strings.Repeat("/x/..", 2000) + "/r"
	for _, workers := range []int{1, 4} {
		c := NewTo(fs, SingleFileGrouper(extractors.DefaultLibrary()),
			func(_ context.Context, fams []family.Family) int { return len(fams) })
		c.Workers = workers
		for i := 0; i < 200; i++ {
			stats, err := c.Crawl(context.Background(), []string{"/missing", r})
			if err != nil {
				t.Fatal(err)
			}
			if stats.ListErrors != 1 || stats.DirsListed != 1 || stats.FilesSeen != 1 {
				t.Fatalf("Workers %d, crawl %d: stats = %+v, want /missing refused and /r's one file seen", workers, i, stats)
			}
		}
	}
}

// heldStore holds each listing until the test opens its directory's gate.
type heldStore struct {
	store.Store
	inflight atomic.Int32
	mu       sync.Mutex
	gates    map[string]chan struct{}
}

func (h *heldStore) gate(dir string) chan struct{} {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.gates == nil {
		h.gates = map[string]chan struct{}{}
	}
	if h.gates[dir] == nil {
		h.gates[dir] = make(chan struct{})
	}
	return h.gates[dir]
}

func (h *heldStore) List(dir string) ([]store.FileInfo, error) {
	h.inflight.Add(1)
	defer h.inflight.Add(-1)
	<-h.gate(dir)
	return h.Store.List(dir)
}

// TestPushStartsAWorkerOnlyWhenNoneIsFree: a directory queued while every
// started worker is busy starts one more, and one queued while a worker
// is free goes to that worker.
func TestPushStartsAWorkerOnlyWhenNoneIsFree(t *testing.T) {
	h := &heldStore{Store: store.NewMemFS("petrel", nil)}
	c := NewTo(h, SingleFileGrouper(extractors.DefaultLibrary()),
		func(_ context.Context, fams []family.Family) int { return len(fams) })
	q := newDirQueue(c, context.Background(), 4)
	workers := func() (started, busy int) {
		q.mu.Lock()
		defer q.mu.Unlock()
		return q.started, q.busy
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("after 10 s: want %s", what)
			}
		}
	}
	q.start([]string{"/a"})
	waitFor("/a listing", func() bool { return h.inflight.Load() == 1 })
	q.push("/b") // the one worker is busy
	waitFor("/a and /b listing", func() bool { return h.inflight.Load() == 2 })
	close(h.gate("/a"))
	waitFor("/a's worker free", func() bool { _, busy := workers(); return busy == 1 })
	q.push("/c") // /a's worker is free
	waitFor("/b and /c listing", func() bool { return h.inflight.Load() == 2 })
	if started, _ := workers(); started != 2 {
		t.Errorf("%d workers started, want 2: /c went to a new worker, not the free one", started)
	}
	close(h.gate("/b"))
	close(h.gate("/c"))
	q.wg.Wait()
	if q.total.ListErrors != 3 {
		t.Fatalf("stats = %+v, want the three missing directories refused", q.total)
	}
}

func TestCrawlNilGrouper(t *testing.T) {
	fs := store.NewMemFS("x", nil)
	out := queue.New("families", clock.NewReal())
	c := New(fs, nil, out)
	if _, err := c.Crawl(context.Background(), []string{"/"}); err == nil {
		t.Fatal("expected error for nil grouper")
	}
}

func TestCrawlNaiveVsMinTransfers(t *testing.T) {
	// With the MatIO grouper, POSCAR belongs to both the vasp and ase
	// groups; naive shipping emits more families than min-transfers and
	// strictly more redundant transfers.
	fs := buildTree(t)
	run := func(useMT bool) []family.Family {
		out := queue.New("families", clock.NewReal())
		c := New(fs, MatIOGrouper(extractors.DefaultLibrary()), out)
		c.UseMinTransfers = useMT
		if _, err := c.Crawl(context.Background(), []string{"/data/exp1"}); err != nil {
			t.Fatal(err)
		}
		return drainFamilies(t, out)
	}
	mt := run(true)
	naive := run(false)
	if family.RedundantTransfers(naive) <= family.RedundantTransfers(mt)-1 {
		t.Fatalf("naive redundant %d, min-transfers %d",
			family.RedundantTransfers(naive), family.RedundantTransfers(mt))
	}
	if family.RedundantTransfers(mt) != 0 {
		t.Fatalf("min-transfers redundant = %d, want 0", family.RedundantTransfers(mt))
	}
	if family.RedundantTransfers(naive) == 0 {
		t.Fatal("naive should have redundant transfers here")
	}
}

// listTimes records when each directory was listed, on the store's clock.
type listTimes struct {
	store.Store
	clk *clock.Fake
	mu  sync.Mutex
	at  map[string][]time.Duration // since start, one per List call
	t0  time.Time
}

func (l *listTimes) List(dir string) ([]store.FileInfo, error) {
	l.mu.Lock()
	l.at[dir] = append(l.at[dir], l.clk.Now().Sub(l.t0))
	l.mu.Unlock()
	return l.Store.List(dir)
}

// crawlOnFakeClock crawls a Drive store behind a listTimes, one worker on
// clk, advancing clk 10 ms at a time whenever the crawl sleeps on it.
func crawlOnFakeClock(t *testing.T, clk *clock.Fake, drive *store.DriveStore) (Stats, map[string][]time.Duration) {
	t.Helper()
	lt := &listTimes{Store: drive, clk: clk, at: map[string][]time.Duration{}, t0: clk.Now()}
	c := NewTo(lt, SingleFileGrouper(extractors.DefaultLibrary()), func(_ context.Context, fams []family.Family) int { return len(fams) })
	c.Workers, c.Clock = 1, clk
	var stats Stats
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		stats, err = c.Crawl(context.Background(), []string{"/"})
	}()
	for {
		select {
		case <-done:
			if err != nil {
				t.Fatal(err)
			}
			return stats, lt.at
		default:
		}
		if clk.PendingTimers() > 0 {
			clk.Advance(10 * time.Millisecond)
		} else {
			runtime.Gosched()
		}
	}
}

// gaps returns the spans between consecutive calls.
func gaps(at []time.Duration) []time.Duration {
	var out []time.Duration
	for i := 1; i < len(at); i++ {
		out = append(out, at[i]-at[i-1])
	}
	return out
}

func TestCrawlRetriesRateLimitedDriveStore(t *testing.T) {
	// A Drive store with one token and 2.5 a second refilling rejects
	// every listing after the first until 0.7 s of backoff has passed:
	// three retries a directory, 100, 200 and 400 ms apart.
	clk := clock.NewFake(time.Unix(1_700_000_000, 0))
	drive := store.NewDriveStore("gdrive", clk, 2.5, 1)
	for i := 0; i < 6; i++ {
		if err := drive.Write(fmt.Sprintf("/docs/d%d/f.txt", i), []byte("words")); err != nil {
			t.Fatal(err)
		}
	}
	stats, at := crawlOnFakeClock(t, clk, drive)
	if stats.FilesSeen != 6 || stats.ListErrors != 0 {
		t.Fatalf("FilesSeen = %d, list errors %d", stats.FilesSeen, stats.ListErrors)
	}
	if stats.RateLimited != 3*7 {
		t.Fatalf("RateLimited = %d, want 3 for /docs and each of its 6 directories", stats.RateLimited)
	}
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond}
	for dir, calls := range at {
		if dir == "/" {
			continue // the bucket's one token
		}
		if got := gaps(calls); !slices.Equal(got, want) {
			t.Errorf("%s: retries %v apart, want %v", dir, got, want)
		}
	}
}

func TestCrawlRateLimitRetriesExhausted(t *testing.T) {
	// With no refill to speak of, /d is rejected on its first listing and
	// on all four retries: the listing counts as an error rather than
	// hanging.
	clk := clock.NewFake(time.Unix(1_700_000_000, 0))
	drive := store.NewDriveStore("gdrive", clk, 0.000001, 1)
	_ = drive.Write("/d/f.txt", []byte("x"))
	stats, at := crawlOnFakeClock(t, clk, drive)
	if stats.ListErrors != 1 || stats.RateLimited != 4 || stats.DirsListed != 1 {
		t.Fatalf("expected /d's exhausted retries to surface as one list error: %+v", stats)
	}
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond, 800 * time.Millisecond}
	if got := gaps(at["/d"]); !slices.Equal(got, want) {
		t.Fatalf("/d: retries %v apart, want %v", got, want)
	}
}

func TestCrawlFingerprintRecordsContentHashes(t *testing.T) {
	fs := buildTree(t)

	out := queue.New("families", clock.NewReal())
	c := New(fs, SingleFileGrouper(extractors.DefaultLibrary()), out)
	if _, err := c.Crawl(context.Background(), []string{"/"}); err != nil {
		t.Fatal(err)
	}
	for _, f := range drainFamilies(t, out) {
		for _, fm := range f.FileMeta {
			if fm.ContentHash != "" {
				t.Fatalf("fingerprinting off but %s has hash %q", fm.Path, fm.ContentHash)
			}
		}
	}

	c = New(fs, SingleFileGrouper(extractors.DefaultLibrary()), out)
	c.Fingerprint = true
	if _, err := c.Crawl(context.Background(), []string{"/"}); err != nil {
		t.Fatal(err)
	}
	hashes := make(map[string]string)
	for _, f := range drainFamilies(t, out) {
		for _, fm := range f.FileMeta {
			if fm.ContentHash == "" {
				t.Fatalf("fingerprinting on but %s has no hash", fm.Path)
			}
			hashes[fm.ContentHash] = fm.Path
		}
	}
	// Hashes are content-addressed: distinct contents, distinct hashes.
	if len(hashes) < 8 {
		t.Fatalf("only %d distinct hashes for 8 distinct files", len(hashes))
	}
}

// peekStore notes how many messages the output queue has taken each time
// the crawler asks the store's name, which it does once per family while
// packaging a directory.
type peekStore struct {
	store.Store
	out      *queue.Queue
	maxDepth int64
}

func (p *peekStore) Name() string {
	if n, _ := p.out.Stats(); n > p.maxDepth {
		p.maxDepth = n
	}
	return p.Store.Name()
}

// A directory's families become visible together, in one batch: while the
// crawler is still packaging them the queue is empty.
func TestCrawlSendsOneBatchPerDirectory(t *testing.T) {
	fs := store.NewMemFS("petrel", nil)
	for i := 0; i < 10; i++ {
		if err := fs.Write(fmt.Sprintf("/d/f%d.txt", i), []byte("words")); err != nil {
			t.Fatal(err)
		}
	}
	out := queue.New("families", clock.NewReal())
	ps := &peekStore{Store: fs, out: out}
	c := New(ps, SingleFileGrouper(extractors.DefaultLibrary()), out)
	c.Workers = 1
	stats, err := c.Crawl(context.Background(), []string{"/d"})
	if err != nil {
		t.Fatal(err)
	}
	if ps.maxDepth != 0 {
		t.Fatalf("queue held %d families of a directory still being packaged", ps.maxDepth)
	}
	if queued := len(out.Drain()); stats.FamiliesEmitted != 10 || queued != 10 {
		t.Fatalf("emitted %d, queued %d; want 10, 10", stats.FamiliesEmitted, queued)
	}
}

// A family whose metadata cannot be serialized is dropped, but counted:
// FamiliesEmitted covers only what reached the queue.
// The packaging of the matio grouper's overlapping groups, cut down to
// two-file families so every seed really cuts, as family.AppendFamily
// bytes computed at the commit before BuildGraph stopped allocating a set
// per group: the leaner BuildGraph must hand MinTransfers the same graph.
func TestMatIOFamiliesMatchGolden(t *testing.T) {
	var files []store.FileInfo
	for _, n := range []string{"INCAR", "POSCAR", "OUTCAR", "CONTCAR", "KPOINTS", "notes.txt", "run.csv"} {
		files = append(files, store.FileInfo{Path: "/calc/" + n, Name: n, Size: int64(len(n))})
	}
	groups := MatIOGrouper(extractors.DefaultLibrary())("/calc", files)
	// A group naming one file twice: BuildGraph deduplicates it.
	groups = append(groups, family.Group{ID: "/calc#dup", Extractor: "keyword",
		Files: []string{"/calc/run.csv", "/calc/notes.txt", "/calc/run.csv"}})
	golden := []string{ // seeds 1, 2, 3
		`{"id":"fam-0","files":["/calc/notes.txt","/calc/run.csv"],"groups":[{"id":"/calc#f0","files":["/calc/notes.txt"],"extractor":"keyword"},{"id":"/calc#f1","files":["/calc/run.csv"],"extractor":"keyword"},{"id":"/calc#dup","files":["/calc/run.csv","/calc/notes.txt","/calc/run.csv"],"extractor":"keyword"}]}` + "\n" +
			`{"id":"fam-1","files":["/calc/POSCAR"],"groups":[{"id":"/calc#ase","files":["/calc/POSCAR","/calc/CONTCAR"],"extractor":"ase"}]}` + "\n" +
			`{"id":"fam-3","files":["/calc/INCAR","/calc/CONTCAR","/calc/OUTCAR","/calc/KPOINTS"],"groups":[{"id":"/calc#vasp","files":["/calc/INCAR","/calc/POSCAR","/calc/OUTCAR","/calc/CONTCAR","/calc/KPOINTS"],"extractor":"matio"}]}` + "\n",
		`{"id":"fam-0","files":["/calc/notes.txt","/calc/run.csv"],"groups":[{"id":"/calc#f0","files":["/calc/notes.txt"],"extractor":"keyword"},{"id":"/calc#f1","files":["/calc/run.csv"],"extractor":"keyword"},{"id":"/calc#dup","files":["/calc/run.csv","/calc/notes.txt","/calc/run.csv"],"extractor":"keyword"}]}` + "\n" +
			`{"id":"fam-3","files":["/calc/POSCAR","/calc/KPOINTS","/calc/OUTCAR","/calc/INCAR","/calc/CONTCAR"],"groups":[{"id":"/calc#vasp","files":["/calc/INCAR","/calc/POSCAR","/calc/OUTCAR","/calc/CONTCAR","/calc/KPOINTS"],"extractor":"matio"},{"id":"/calc#ase","files":["/calc/POSCAR","/calc/CONTCAR"],"extractor":"ase"}]}` + "\n",
		`{"id":"fam-0","files":["/calc/notes.txt","/calc/run.csv"],"groups":[{"id":"/calc#f0","files":["/calc/notes.txt"],"extractor":"keyword"},{"id":"/calc#f1","files":["/calc/run.csv"],"extractor":"keyword"},{"id":"/calc#dup","files":["/calc/run.csv","/calc/notes.txt","/calc/run.csv"],"extractor":"keyword"}]}` + "\n" +
			`{"id":"fam-3","files":["/calc/POSCAR"],"groups":[{"id":"/calc#ase","files":["/calc/POSCAR","/calc/CONTCAR"],"extractor":"ase"}]}` + "\n" +
			`{"id":"fam-4","files":["/calc/OUTCAR","/calc/CONTCAR","/calc/KPOINTS","/calc/INCAR"],"groups":[{"id":"/calc#vasp","files":["/calc/INCAR","/calc/POSCAR","/calc/OUTCAR","/calc/CONTCAR","/calc/KPOINTS"],"extractor":"matio"}]}` + "\n",
	}
	for i, want := range golden {
		var body []byte
		for _, f := range family.MinTransfers(groups, 2, rand.New(rand.NewSource(int64(i+1)))) {
			body = append(family.AppendFamily(body, &f), '\n')
		}
		if string(body) != want {
			t.Errorf("seed %d:\n got %s\nwant %s", i+1, body, want)
		}
	}
}

// TestLazySourceDrawsWhatItsSeedWould: a crawl worker's source is seeded
// on its first draw, not when the worker starts, and gives the draws
// rand.NewSource of the same seed gives, so the families a crawl forms
// are unchanged.
func TestLazySourceDrawsWhatItsSeedWould(t *testing.T) {
	lazy := &lazySource{seed: 42}
	got, want := rand.New(lazy), rand.New(rand.NewSource(42))
	if lazy.src != nil {
		t.Fatal("source seeded before its first draw")
	}
	for i := 0; i < 1000; i++ {
		if g, w := got.Intn(1+i), want.Intn(1+i); g != w {
			t.Fatalf("draw %d: %d, want %d", i, g, w)
		}
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("draw %d: %d, want %d", i, g, w)
		}
	}
}

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// TestDirectoryCrawlStaysInItsBudget: crawling one 64-file directory with
// the single grouper — listing, grouping, packing and the families'
// records — allocates per directory and per family only what the
// families hold. The counts are what the crawl reaches today; the race
// detector changes them, so the test skips under it.
func TestDirectoryCrawlStaysInItsBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	fs := store.NewMemFS("petrel", nil)
	for i := 0; i < 64; i++ {
		if err := fs.Write(fmt.Sprintf("/d/f%03d.txt", i), []byte("abc")); err != nil {
			t.Fatal(err)
		}
	}
	families := 0
	c := NewTo(fs, SingleFileGrouper(extractors.DefaultLibrary()), func(_ context.Context, fams []family.Family) int {
		families = len(fams)
		return len(fams)
	})
	dq := newDirQueue(nil, nil, 0)
	rng := rand.New(&lazySource{seed: 1})
	var pk family.Packer
	allocs := testing.AllocsPerRun(20, func() { c.processDir(context.Background(), "/d", dq, rng, &pk) })
	if families != 64 {
		t.Fatalf("%d families, want 64", families)
	}
	t.Logf("%.0f allocations for a 64-file directory", allocs)
	const budget = 7 // 329 (budget 331) before the ID sheets, 1,284 before families stopped building maps nobody reads
	if allocs > budget {
		t.Fatalf("crawling a 64-file directory allocated %.0f times, budget %d", allocs, budget)
	}
}

// TestVASPDirectoryCrawlStaysInItsBudget: a VASP calculation's
// directory, crawled again with the matio grouper, the default library
// and a warm fingerprint memo — listing, grouping, packing the
// calculation with the structure analysis that shares its POSCAR, and
// the families' records — allocates per directory and per family only
// what the families hold. The race detector changes the count, so the
// test skips under it.
func TestVASPDirectoryCrawlStaysInItsBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	fs := store.NewMemFS("mdf", nil)
	for _, n := range []string{"INCAR", "OUTCAR", "POSCAR", "run.yaml"} {
		if err := fs.Write("/data/calc_00000/"+n, []byte(n)); err != nil {
			t.Fatal(err)
		}
	}
	var fams []family.Family
	c := NewTo(fs, MatIOGrouper(extractors.DefaultLibrary()), func(_ context.Context, batch []family.Family) int {
		fams = batch
		return len(batch)
	})
	c.Fingerprint, c.Hashes = true, cache.New(0)
	dq := newDirQueue(nil, nil, 0)
	rng := rand.New(&lazySource{seed: 1})
	var pk family.Packer
	crawl := func() { c.processDir(context.Background(), "/data/calc_00000", dq, rng, &pk) }
	crawl() // the cold crawl reads and hashes every file
	allocs := testing.AllocsPerRun(20, crawl)
	if len(fams) != 2 || len(fams[0].Groups) != 2 || fams[0].FileMeta[0].ContentHash == "" {
		t.Fatalf("families %+v, want the calculation with its structure analysis, and the sidecar, hashed", fams)
	}
	t.Logf("%.0f allocations for a VASP directory", allocs)
	const budget = 9 // 58 before the Packer, the ID sheets and the in-place VASP check; 10 before the window took the repeated POSCAR
	if allocs > budget {
		t.Fatalf("crawling a VASP directory allocated %.0f times, budget %d", allocs, budget)
	}
}

// TestFamilyMetaHoldsEveryGroupFileOnce: a family's records are those of
// every file its groups name, once each, in path order — a window of the
// directory's records when the files are a run of the listing, repeats of
// a file the run already holds aside, a copy otherwise, with a path-only
// record for a file the listing lacks.
func TestFamilyMetaHoldsEveryGroupFileOnce(t *testing.T) {
	var metas []family.FileMeta
	for _, n := range []string{"a", "b", "c", "d", "e"} {
		metas = append(metas, family.FileMeta{Path: "/d/" + n, Size: int64(n[0]), Extension: n})
	}
	rec := func(n string) family.FileMeta { return metas[n[0]-'a'] }
	cases := []struct {
		name   string
		groups [][]string
		want   []family.FileMeta
		window bool
	}{
		{"one file", [][]string{{"/d/c"}}, []family.FileMeta{rec("c")}, true},
		{"the whole directory", [][]string{{"/d/a", "/d/b", "/d/c", "/d/d", "/d/e"}}, metas, true},
		{"a run split over groups", [][]string{{"/d/b"}, {"/d/c", "/d/d"}}, metas[1:4], true},
		{"a gap", [][]string{{"/d/a", "/d/c", "/d/e"}}, []family.FileMeta{rec("a"), rec("c"), rec("e")}, false},
		{"out of order", [][]string{{"/d/c", "/d/b"}}, metas[1:3], false},
		{"shared by two groups", [][]string{{"/d/b", "/d/d", "/d/a"}, {"/d/d", "/d/b"}},
			[]family.FileMeta{rec("a"), rec("b"), rec("d")}, false},
		{"twice in one group", [][]string{{"/d/e", "/d/e"}}, []family.FileMeta{rec("e")}, true},
		{"a run and a group repeating its last file", [][]string{{"/d/a", "/d/b", "/d/c"}, {"/d/c"}}, metas[:3], true},
		{"a repeat inside the run", [][]string{{"/d/b", "/d/c"}, {"/d/b", "/d/d"}}, metas[1:4], true},
		{"not listed", [][]string{{"/d/b", "/d/zz", "/d/0"}},
			[]family.FileMeta{{Path: "/d/0"}, rec("b"), {Path: "/d/zz"}}, false},
		{"no files", [][]string{{}}, nil, false},
	}
	for _, tc := range cases {
		var groups []family.Group
		for _, files := range tc.groups {
			groups = append(groups, family.Group{Files: files})
		}
		got := familyMeta(groups, metas)
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: records %v, want %v", tc.name, got, tc.want)
			continue
		}
		shared := false
		for i := range metas {
			shared = shared || (len(got) > 0 && &got[0] == &metas[i])
		}
		if shared != tc.window {
			t.Errorf("%s: shares the directory's records: %v, want %v", tc.name, shared, tc.window)
		}
	}
}

// TestGroupsLeaveTheCrawlInPathOrder: a grouper that lists a group's
// files against path order has them sorted once, here, into a slice of
// the group's own, so every later reader — the worker and its hedged
// duplicates — reads them in order without writing them; a group already
// in order keeps the grouper's slice.
func TestGroupsLeaveTheCrawlInPathOrder(t *testing.T) {
	fs := store.NewMemFS("petrel", nil)
	for _, n := range []string{"a", "b", "c", "d"} {
		if err := fs.Write("/r/"+n+".txt", []byte(n)); err != nil {
			t.Fatal(err)
		}
	}
	var given [][]string
	grouper := func(dir string, files []store.FileInfo) []family.Group {
		reversed := []string{files[1].Path, files[0].Path}
		ordered := []string{files[2].Path, files[3].Path}
		given = [][]string{reversed, ordered}
		return []family.Group{{ID: dir + "#rev", Files: reversed}, {ID: dir + "#ord", Files: ordered}}
	}
	var fams []family.Family
	c := NewTo(fs, grouper, func(_ context.Context, batch []family.Family) int {
		fams = append(fams, batch...)
		return len(batch)
	})
	c.Workers = 1
	if _, err := c.Crawl(context.Background(), []string{"/r"}); err != nil {
		t.Fatal(err)
	}
	byID := make(map[string]family.Group)
	for _, f := range fams {
		for _, g := range f.Groups {
			byID[g.ID] = g
		}
	}
	rev, ord := byID["/r#rev"], byID["/r#ord"]
	if !slices.Equal(rev.Files, []string{"/r/a.txt", "/r/b.txt"}) || !slices.Equal(ord.Files, []string{"/r/c.txt", "/r/d.txt"}) {
		t.Fatalf("groups %v and %v, want each in path order", rev.Files, ord.Files)
	}
	if !slices.Equal(given[0], []string{"/r/b.txt", "/r/a.txt"}) {
		t.Fatalf("the crawl sorted the grouper's own slice in place: %v", given[0])
	}
	if &ord.Files[0] != &given[1][0] {
		t.Fatal("a group already in path order was copied")
	}
}

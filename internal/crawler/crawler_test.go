package crawler

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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
				if _, ok := f.FileMeta[p]; !ok {
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

func TestCrawlRetriesRateLimitedDriveStore(t *testing.T) {
	// A rate-limited Drive store rejects bursts; the crawler must back
	// off and finish the crawl anyway.
	clk := clock.NewReal()
	drive := store.NewDriveStore("gdrive", clk, 200, 2) // tight burst, fast refill
	for i := 0; i < 6; i++ {
		if err := drive.Write(fmt.Sprintf("/docs/d%d/f.txt", i), []byte("words")); err != nil {
			t.Fatal(err)
		}
	}
	out := queue.New("families", clk)
	c := New(drive, SingleFileGrouper(extractors.DefaultLibrary()), out)
	c.Workers = 2
	c.RateLimitBackoff = 2 * time.Millisecond
	c.RateLimitRetries = 8
	stats, err := c.Crawl(context.Background(), []string{"/"})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FilesSeen != 6 {
		t.Fatalf("FilesSeen = %d (list errors %d, rate limited %d)",
			stats.FilesSeen, stats.ListErrors, stats.RateLimited)
	}
	if stats.RateLimited == 0 {
		t.Fatal("rate limiter never tripped; test is vacuous")
	}
}

func TestCrawlRateLimitRetriesExhausted(t *testing.T) {
	// With zero refill the retries run out and the listing counts as an
	// error rather than hanging.
	clk := clock.NewReal()
	drive := store.NewDriveStore("gdrive", clk, 0.000001, 1)
	_ = drive.Write("/d/f.txt", []byte("x"))
	out := queue.New("families", clk)
	c := New(drive, SingleFileGrouper(extractors.DefaultLibrary()), out)
	c.Workers = 1
	c.RateLimitBackoff = time.Microsecond
	c.RateLimitRetries = 2
	stats, err := c.Crawl(context.Background(), []string{"/", "/d"})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ListErrors == 0 {
		t.Fatalf("expected exhausted retries to surface as list errors: %+v", stats)
	}
}

func TestElasticScalingSpawnsWorkers(t *testing.T) {
	// A wide, slow store overloads 1 initial worker; elastic scaling must
	// spawn more and the crawl must still find everything.
	clk := clock.NewReal()
	inner := store.NewMemFS("wide", nil)
	for i := 0; i < 200; i++ {
		if err := inner.Write(fmt.Sprintf("/r/d%03d/f.txt", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	slow := store.WithLatency(inner, clk, store.LatencyProfile{ListRTT: time.Millisecond})
	out := queue.New("families", clk)
	c := New(slow, SingleFileGrouper(extractors.DefaultLibrary()), out)
	c.Workers = 1
	c.MaxWorkers = 8
	c.ScaleBacklog = 2
	stats, err := c.Crawl(context.Background(), []string{"/r"})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FilesSeen != 200 {
		t.Fatalf("FilesSeen = %d", stats.FilesSeen)
	}
	if stats.WorkersSpawned == 0 {
		t.Fatal("no workers spawned despite backlog")
	}
	if stats.WorkersSpawned > 7 {
		t.Fatalf("spawned %d workers, cap is 7", stats.WorkersSpawned)
	}
}

func TestElasticScalingDisabledByDefault(t *testing.T) {
	fs := buildTree(t)
	out := queue.New("families", clock.NewReal())
	c := New(fs, SingleFileGrouper(extractors.DefaultLibrary()), out)
	stats, err := c.Crawl(context.Background(), []string{"/"})
	if err != nil {
		t.Fatal(err)
	}
	if stats.WorkersSpawned != 0 {
		t.Fatalf("spawned %d workers with scaling disabled", stats.WorkersSpawned)
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
		for p, fm := range f.FileMeta {
			if fm.ContentHash != "" {
				t.Fatalf("fingerprinting off but %s has hash %q", p, fm.ContentHash)
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
		for p, fm := range f.FileMeta {
			if fm.ContentHash == "" {
				t.Fatalf("fingerprinting on but %s has no hash", p)
			}
			hashes[fm.ContentHash] = p
		}
	}
	// Hashes are content-addressed: distinct contents, distinct hashes.
	if len(hashes) < 8 {
		t.Fatalf("only %d distinct hashes for 8 distinct files", len(hashes))
	}
}

// peekStore notes the output queue's depth each time the crawler asks the
// store's name, which it does once per family while packaging a directory.
type peekStore struct {
	store.Store
	out      *queue.Queue
	maxDepth int
}

func (p *peekStore) Name() string {
	if n := p.out.Len(); n > p.maxDepth {
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
	if stats.FamiliesEmitted != 10 || out.Len() != 10 {
		t.Fatalf("emitted %d, queued %d; want 10, 10", stats.FamiliesEmitted, out.Len())
	}
}

// A family whose metadata cannot be serialized is dropped, but counted:
// FamiliesEmitted covers only what reached the queue.
func TestCrawlCountsUnencodableFamilies(t *testing.T) {
	fs := buildTree(t)
	out := queue.New("families", clock.NewReal())
	grouper := func(dir string, files []store.FileInfo) []family.Group {
		var groups []family.Group
		for _, fi := range files {
			g := family.Group{ID: fi.Path, Files: []string{fi.Path}, Extractor: "keyword"}
			if fi.Name == "OUTCAR" {
				g.Metadata = map[string]interface{}{"energy": math.NaN()}
			}
			groups = append(groups, g)
		}
		return groups
	}
	c := New(fs, grouper, out)
	c.UseMinTransfers = false
	stats, err := c.Crawl(context.Background(), []string{"/data/exp1"})
	if err != nil {
		t.Fatal(err)
	}
	if stats.EncodeErrors != 1 || stats.FamiliesEmitted != 3 || out.Len() != 3 {
		t.Fatalf("encode errors %d, emitted %d, queued %d; want 1, 3, 3",
			stats.EncodeErrors, stats.FamiliesEmitted, out.Len())
	}
	for _, f := range drainFamilies(t, out) {
		if strings.HasSuffix(f.Files[0], "OUTCAR") {
			t.Fatalf("the unencodable family was sent: %+v", f)
		}
	}
}

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
		`{"id":"fam-0","files":["/calc/notes.txt","/calc/run.csv"],"groups":[{"id":"/calc#f0","files":["/calc/notes.txt"],"extractor":"keyword","metadata":{"candidates":["keyword","entity"]}},{"id":"/calc#f1","files":["/calc/run.csv"],"extractor":"keyword","metadata":{"candidates":["keyword","entity"]}},{"id":"/calc#dup","files":["/calc/run.csv","/calc/notes.txt","/calc/run.csv"],"extractor":"keyword"}]}` + "\n" +
			`{"id":"fam-1","files":["/calc/POSCAR"],"groups":[{"id":"/calc#ase","files":["/calc/POSCAR","/calc/CONTCAR"],"extractor":"ase","metadata":{"candidates":["ase"]}}]}` + "\n" +
			`{"id":"fam-3","files":["/calc/INCAR","/calc/CONTCAR","/calc/OUTCAR","/calc/KPOINTS"],"groups":[{"id":"/calc#vasp","files":["/calc/INCAR","/calc/POSCAR","/calc/OUTCAR","/calc/CONTCAR","/calc/KPOINTS"],"extractor":"matio","metadata":{"candidates":["matio"]}}]}` + "\n",
		`{"id":"fam-0","files":["/calc/notes.txt","/calc/run.csv"],"groups":[{"id":"/calc#f0","files":["/calc/notes.txt"],"extractor":"keyword","metadata":{"candidates":["keyword","entity"]}},{"id":"/calc#f1","files":["/calc/run.csv"],"extractor":"keyword","metadata":{"candidates":["keyword","entity"]}},{"id":"/calc#dup","files":["/calc/run.csv","/calc/notes.txt","/calc/run.csv"],"extractor":"keyword"}]}` + "\n" +
			`{"id":"fam-3","files":["/calc/POSCAR","/calc/KPOINTS","/calc/OUTCAR","/calc/INCAR","/calc/CONTCAR"],"groups":[{"id":"/calc#vasp","files":["/calc/INCAR","/calc/POSCAR","/calc/OUTCAR","/calc/CONTCAR","/calc/KPOINTS"],"extractor":"matio","metadata":{"candidates":["matio"]}},{"id":"/calc#ase","files":["/calc/POSCAR","/calc/CONTCAR"],"extractor":"ase","metadata":{"candidates":["ase"]}}]}` + "\n",
		`{"id":"fam-0","files":["/calc/notes.txt","/calc/run.csv"],"groups":[{"id":"/calc#f0","files":["/calc/notes.txt"],"extractor":"keyword","metadata":{"candidates":["keyword","entity"]}},{"id":"/calc#f1","files":["/calc/run.csv"],"extractor":"keyword","metadata":{"candidates":["keyword","entity"]}},{"id":"/calc#dup","files":["/calc/run.csv","/calc/notes.txt","/calc/run.csv"],"extractor":"keyword"}]}` + "\n" +
			`{"id":"fam-3","files":["/calc/POSCAR"],"groups":[{"id":"/calc#ase","files":["/calc/POSCAR","/calc/CONTCAR"],"extractor":"ase","metadata":{"candidates":["ase"]}}]}` + "\n" +
			`{"id":"fam-4","files":["/calc/OUTCAR","/calc/CONTCAR","/calc/KPOINTS","/calc/INCAR"],"groups":[{"id":"/calc#vasp","files":["/calc/INCAR","/calc/POSCAR","/calc/OUTCAR","/calc/CONTCAR","/calc/KPOINTS"],"extractor":"matio","metadata":{"candidates":["matio"]}}]}` + "\n",
	}
	for i, want := range golden {
		var body []byte
		for _, f := range family.MinTransfers(groups, 2, rand.New(rand.NewSource(int64(i+1)))) {
			var err error
			if body, err = family.AppendFamily(body, &f); err != nil {
				t.Fatal(err)
			}
			body = append(body, '\n')
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

package crawler

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"xtract/internal/cache"
	"xtract/internal/clock"
	"xtract/internal/extractors"
	"xtract/internal/family"
	"xtract/internal/queue"
	"xtract/internal/store"
)

// A fingerprint is the content's hex SHA-256: every cache key and journal
// record written so far names content by it.
func TestExactKeyDeterministic(t *testing.T) {
	a, b, c := ExactKey([]byte("hello")), ExactKey([]byte("hello")), ExactKey([]byte("hello!"))
	if a != "2cf24dba5fb0a30e26e83b2ac5b9e29e1b161e5c1fa7425e73043362938b9824" || a != b {
		t.Fatalf("ExactKey(hello) = %s, then %s", a, b)
	}
	if a == c {
		t.Fatal("different content, same key")
	}
}

// readCounter counts the Read calls that reach the store, by path.
type readCounter struct {
	store.Store
	mu    sync.Mutex
	paths map[string]int
}

func (r *readCounter) Read(p string) ([]byte, error) {
	r.mu.Lock()
	if r.paths == nil {
		r.paths = make(map[string]int)
	}
	r.paths[p]++
	r.mu.Unlock()
	return r.Store.Read(p)
}

// take returns the reads since the last call and forgets them.
func (r *readCounter) take() map[string]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	got := r.paths
	r.paths = nil
	return got
}

func frozen() time.Time { return time.Unix(1_600_000_000, 0) }

// frozenTree is buildTree's corpus on a clock that never moves.
func frozenTree(t *testing.T, s store.Store) {
	t.Helper()
	for p, content := range map[string]string{
		"/data/exp1/INCAR":   "ENCUT = 520\n",
		"/data/exp1/POSCAR":  "si\n1.0\n",
		"/data/exp1/OUTCAR":  "free  energy   TOTEN  = -1.0 eV\n",
		"/data/exp2/run.csv": "a,b\n1,2\n",
		"/data/readme.md":    "materials data facility subset",
	} {
		if err := s.Write(p, []byte(content)); err != nil {
			t.Fatal(err)
		}
	}
}

// crawlHashes crawls "/" with fingerprinting on and the given memo and
// returns the crawl's statistics and every file's recorded hash.
func crawlHashes(t *testing.T, s store.Store, memo *cache.Cache) (Stats, map[string]string) {
	t.Helper()
	out := queue.New("families", clock.NewReal())
	c := New(s, SingleFileGrouper(extractors.DefaultLibrary()), out)
	c.Fingerprint, c.Hashes = true, memo
	stats, err := c.Crawl(context.Background(), []string{"/"})
	if err != nil {
		t.Fatal(err)
	}
	hashes := make(map[string]string)
	for _, f := range drainFamilies(t, out) {
		for _, fm := range f.FileMeta {
			hashes[fm.Path] = fm.ContentHash
		}
	}
	return stats, hashes
}

func wantHashes(t *testing.T, s store.Store, got map[string]string) {
	t.Helper()
	for p, h := range got {
		data, err := s.Read(p)
		if err != nil {
			t.Fatal(err)
		}
		if want := ExactKey(data); h != want {
			t.Errorf("%s: crawl recorded %q, content hashes to %q", p, h, want)
		}
	}
}

func TestWarmCrawlCallsNoStoreRead(t *testing.T) {
	fs := store.NewMemFS("petrel", frozen)
	frozenTree(t, fs)
	rc := &readCounter{Store: fs}
	memo := cache.New(0)

	cold, hashes := crawlHashes(t, rc, memo)
	if cold.FilesHashed != 5 || cold.HashesReused != 0 || len(rc.take()) != 5 {
		t.Fatalf("cold crawl: %+v", cold)
	}
	wantHashes(t, fs, hashes)

	warm, again := crawlHashes(t, rc, memo)
	if reads := rc.take(); len(reads) != 0 {
		t.Fatalf("warm crawl made Store.Read calls: %v", reads)
	}
	if warm.FilesHashed != 0 || warm.HashesReused != 5 || warm.FingerprintErrors != 0 {
		t.Fatalf("warm crawl: %+v", warm)
	}
	if len(again) != len(hashes) {
		t.Fatalf("warm crawl saw %d files, cold %d", len(again), len(hashes))
	}
	for p, h := range hashes {
		if again[p] != h {
			t.Errorf("%s: warm hash %q, cold %q", p, again[p], h)
		}
	}

	// Same size, same ModTime, different bytes: only the token moved.
	before, _ := fs.Stat("/data/exp1/INCAR")
	if err := fs.Write("/data/exp1/INCAR", []byte("ENCUT = 999\n")); err != nil {
		t.Fatal(err)
	}
	after, _ := fs.Stat("/data/exp1/INCAR")
	if after.Size != before.Size || !after.ModTime.Equal(before.ModTime) {
		t.Fatalf("test wants size and mtime unchanged: %+v → %+v", before, after)
	}
	third, changed := crawlHashes(t, rc, memo)
	if reads := rc.take(); len(reads) != 1 || reads["/data/exp1/INCAR"] != 1 {
		t.Fatalf("after one overwrite the crawl read %v", reads)
	}
	if third.FilesHashed != 1 || third.HashesReused != 4 {
		t.Fatalf("crawl after overwrite: %+v", third)
	}
	if changed["/data/exp1/INCAR"] == hashes["/data/exp1/INCAR"] {
		t.Fatal("overwritten file kept its old hash")
	}
	wantHashes(t, fs, changed)

	// Delete and recreate with identical bytes: re-read, same hash.
	if err := fs.Delete("/data/readme.md"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Write("/data/readme.md", []byte("materials data facility subset")); err != nil {
		t.Fatal(err)
	}
	_, recreated := crawlHashes(t, rc, memo)
	if reads := rc.take(); len(reads) != 1 || reads["/data/readme.md"] != 1 {
		t.Fatalf("after delete and recreate the crawl read %v", reads)
	}
	if recreated["/data/readme.md"] != hashes["/data/readme.md"] {
		t.Fatal("identical bytes hashed differently")
	}

	if st := memo.Stats(); st.FileHashes != 7 || st.FileHashHits != 13 {
		t.Fatalf("memo stats = %+v, want 7 hashed and 13 reused", st)
	}
}

// A second store with the first one's name and paths (and, here, sizes)
// holds different bytes: the memo filled by crawling one never vouches
// for the other's files.
func TestMemoNeverValidatesAnotherStoreOfTheSameName(t *testing.T) {
	a, b := store.NewMemFS("petrel", frozen), store.NewMemFS("petrel", frozen)
	frozenTree(t, a)
	frozenTree(t, b)
	if err := b.Write("/data/exp1/INCAR", []byte("ENCUT = 111\n")); err != nil {
		t.Fatal(err)
	}
	memo := cache.New(0)
	crawlHashes(t, a, memo)
	rc := &readCounter{Store: b}
	stats, hashes := crawlHashes(t, rc, memo)
	if stats.HashesReused != 0 || len(rc.take()) != 5 {
		t.Fatalf("crawl of the second store reused %d hashes", stats.HashesReused)
	}
	wantHashes(t, b, hashes)
}

func TestTokenlessStoreIsReadOnEveryCrawl(t *testing.T) {
	osd, err := store.NewOSStore("disk", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	frozenTree(t, osd)
	rc := &readCounter{Store: osd}
	memo := cache.New(0)
	for crawl := 1; crawl <= 2; crawl++ {
		stats, hashes := crawlHashes(t, rc, memo)
		if n := len(rc.take()); n != 5 || stats.FilesHashed != 5 || stats.HashesReused != 0 {
			t.Fatalf("crawl %d read %d files: %+v", crawl, n, stats)
		}
		wantHashes(t, osd, hashes)
	}
	if st := memo.Stats(); st.FileHashes != 10 || st.FileHashHits != 0 {
		t.Fatalf("memo stats = %+v", st)
	}
}

// Without a memo (how the benchmark's replay builds its crawler) every
// crawl reads and hashes every file, as before the memo existed.
func TestFingerprintWithoutMemoReadsEveryFile(t *testing.T) {
	fs := store.NewMemFS("petrel", frozen)
	frozenTree(t, fs)
	rc := &readCounter{Store: fs}
	for crawl := 1; crawl <= 2; crawl++ {
		stats, hashes := crawlHashes(t, rc, nil)
		if n := len(rc.take()); n != 5 || stats.FilesHashed != 5 || stats.HashesReused != 0 {
			t.Fatalf("crawl %d read %d files: %+v", crawl, n, stats)
		}
		wantHashes(t, fs, hashes)
	}
}

// A failed fingerprint read is counted; the file goes out without a hash.
func TestFingerprintReadErrorsAreCounted(t *testing.T) {
	fs := store.NewMemFS("petrel", frozen)
	frozenTree(t, fs)
	flaky := store.NewFlaky(fs, 3)
	memo := cache.New(0)
	out := queue.New("families", clock.NewReal())
	c := New(flaky, SingleFileGrouper(extractors.DefaultLibrary()), out)
	c.Workers = 1
	c.Fingerprint, c.Hashes, c.Totals = true, memo, &Totals{}
	stats, err := c.Crawl(context.Background(), []string{"/data/exp1"})
	if err != nil {
		t.Fatal(err)
	}
	// Operations: list, read, read(fails), read.
	if flaky.Injected() != 1 || stats.FingerprintErrors != 1 || stats.FilesHashed != 2 || stats.ListErrors != 0 {
		t.Fatalf("stats = %+v with %d injected failures", stats, flaky.Injected())
	}
	if n := c.Totals.FingerprintErrors.Load(); n != 1 {
		t.Fatalf("Totals.FingerprintErrors = %d", n)
	}
	unhashed := 0
	for _, f := range drainFamilies(t, out) {
		for _, fm := range f.FileMeta {
			if fm.ContentHash == "" {
				unhashed++
			} else if data, _ := fs.Read(fm.Path); fm.ContentHash != ExactKey(data) {
				t.Errorf("%s: wrong hash", fm.Path)
			}
		}
	}
	if unhashed != 1 {
		t.Fatalf("%d files went out without a hash, want 1", unhashed)
	}
	// The failed file was not remembered: the next crawl reads it.
	rc := &readCounter{Store: fs}
	next, hashes := crawlHashes(t, rc, memo)
	if next.HashesReused != 2 || len(hashes) != 5 {
		t.Fatalf("next crawl: %+v", next)
	}
	wantHashes(t, fs, hashes)
}

// Concurrent crawls of one store share one memo while a writer keeps
// replacing a file: every hash a crawl records is the hash of a version
// the file really had, and once the writer stops a crawl sees the last.
func TestConcurrentCrawlsShareOneMemo(t *testing.T) {
	fs := store.NewMemFS("petrel", frozen)
	frozenTree(t, fs)
	memo := cache.New(0)
	versions := []string{"ENCUT = 100\n", "ENCUT = 200\n", "ENCUT = 300\n", "ENCUT = 520\n"}
	valid := make(map[string]bool)
	for _, v := range versions {
		valid[ExactKey([]byte(v))] = true
	}
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := fs.Write("/data/exp1/INCAR", []byte(versions[i%len(versions)])); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var crawls sync.WaitGroup
	for g := 0; g < 4; g++ {
		crawls.Add(1)
		go func() {
			defer crawls.Done()
			for i := 0; i < 20; i++ {
				out := queue.New("families", clock.NewReal())
				c := New(fs, SingleFileGrouper(extractors.DefaultLibrary()), out)
				c.Fingerprint, c.Hashes = true, memo
				if _, err := c.Crawl(context.Background(), []string{"/"}); err != nil {
					t.Error(err)
					return
				}
				for _, body := range out.Drain() {
					var f family.Family
					if err := json.Unmarshal(body, &f); err != nil {
						t.Error(err)
						return
					}
					if m, _ := f.Meta("/data/exp1/INCAR"); m.ContentHash != "" && !valid[m.ContentHash] {
						t.Errorf("INCAR recorded with hash %q of no version", m.ContentHash)
					}
				}
			}
		}()
	}
	crawls.Wait()
	close(stop)
	writer.Wait()
	_, hashes := crawlHashes(t, fs, memo)
	wantHashes(t, fs, hashes)
}

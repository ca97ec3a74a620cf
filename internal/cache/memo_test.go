package cache

import (
	"fmt"
	"sync"
	"testing"
)

// newWithFileBound is New with the fingerprint memo bounded to n files.
func newWithFileBound(n int) *Cache {
	c := New(0)
	c.maxFiles = n
	return c
}

func TestFileHashNeedsSameTokenAndSize(t *testing.T) {
	c := New(0)
	if _, ok := c.FileHash("mdf", "/a", 7, 3); ok {
		t.Fatal("hit on an empty memo")
	}
	c.RecordFileHash("mdf", "/a", 7, 3, "hash-v1")
	if h, ok := c.FileHash("mdf", "/a", 7, 3); !ok || h != "hash-v1" {
		t.Fatalf("same token and size: %q, %v", h, ok)
	}
	for _, tc := range []struct {
		name, store, path string
		token             uint64
		size              int64
	}{
		{"another token", "mdf", "/a", 8, 3},
		{"another size", "mdf", "/a", 7, 4},
		{"another path", "mdf", "/b", 7, 3},
		{"another store", "petrel", "/a", 7, 3},
		{"no token", "mdf", "/a", 0, 3},
	} {
		if h, ok := c.FileHash(tc.store, tc.path, tc.token, tc.size); ok {
			t.Errorf("%s: answered %q", tc.name, h)
		}
	}
	// The file's next version replaces the entry: the old token is gone.
	c.RecordFileHash("mdf", "/a", 9, 3, "hash-v2")
	if _, ok := c.FileHash("mdf", "/a", 7, 3); ok {
		t.Fatal("retired token still answers")
	}
	if h, ok := c.FileHash("mdf", "/a", 9, 3); !ok || h != "hash-v2" {
		t.Fatalf("new version: %q, %v", h, ok)
	}
	if st := c.Stats(); st.FileHashes != 2 || st.FileHashHits != 2 {
		t.Fatalf("stats = %+v, want 2 hashes and 2 hits", st)
	}
}

func TestTokenlessFileIsCountedNotRemembered(t *testing.T) {
	c := New(0)
	c.RecordFileHash("disk", "/a", 0, 3, "hash")
	if len(c.files) != 0 {
		t.Fatalf("memo holds %d token-less entries", len(c.files))
	}
	if _, ok := c.FileHash("disk", "/a", 0, 3); ok {
		t.Fatal("token-less file answered from the memo")
	}
	if st := c.Stats(); st.FileHashes != 1 || st.FileHashHits != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestNilCacheHasNoMemo(t *testing.T) {
	var c *Cache
	c.RecordFileHash("mdf", "/a", 7, 3, "hash")
	if _, ok := c.FileHash("mdf", "/a", 7, 3); ok {
		t.Fatal("nil cache answered")
	}
}

// Past the bound the memo forgets files; it never answers for one file
// with another's hash, and a forgotten file is simply recorded again.
func TestMemoEvictionDegradesToMisses(t *testing.T) {
	const bound, files = 4, 200
	c := newWithFileBound(bound)
	path := func(i int) string { return fmt.Sprintf("/d/f%03d", i) }
	hash := func(i int) string { return fmt.Sprintf("hash-of-%03d", i) }
	for i := 0; i < files; i++ {
		c.RecordFileHash("mdf", path(i), uint64(i+1), 10, hash(i))
		if len(c.files) > bound {
			t.Fatalf("memo holds %d files, bound %d", len(c.files), bound)
		}
	}
	hits := 0
	for i := 0; i < files; i++ {
		h, ok := c.FileHash("mdf", path(i), uint64(i+1), 10)
		if !ok {
			continue
		}
		hits++
		if h != hash(i) {
			t.Fatalf("%s answered with %q", path(i), h)
		}
	}
	if hits != bound {
		t.Fatalf("%d files still answer, want %d", hits, bound)
	}
	// Re-recording a file the memo already holds evicts nothing.
	for k, v := range c.files {
		c.RecordFileHash(k.store, k.path, v.token, v.size, v.hash)
	}
	if len(c.files) != bound {
		t.Fatalf("re-recording changed the memo to %d files", len(c.files))
	}
}

func TestFileHashHitDoesNotAllocate(t *testing.T) {
	c := New(0)
	c.RecordFileHash("mdf", "/data/exp-7/INCAR", 7, 3, "hash")
	store, path := "mdf", "/data/exp-7/INCAR"
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := c.FileHash(store, path, 7, 3); !ok {
			t.Fatal("miss")
		}
	}); n != 0 {
		t.Fatalf("a memo hit allocates %v times", n)
	}
}

// Crawls share one memo: lookups, records and Stats from many goroutines
// (run under -race), with every answer checked against its file.
func TestMemoConcurrentUse(t *testing.T) {
	c := newWithFileBound(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				f := (g*31 + i) % 100
				p, want := fmt.Sprintf("/d/f%02d", f), fmt.Sprintf("hash-%02d", f)
				if h, ok := c.FileHash("mdf", p, uint64(f+1), 10); ok {
					if h != want {
						t.Errorf("%s answered with %q", p, h)
					}
					continue
				}
				c.RecordFileHash("mdf", p, uint64(f+1), 10, want)
				if i%100 == 0 {
					c.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.FileHashes+st.FileHashHits != 8*2000 {
		t.Fatalf("stats = %+v, want %d lookups accounted for", st, 8*2000)
	}
}

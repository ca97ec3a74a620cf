package store

import (
	"sync"
	"testing"
	"time"

	"xtract/internal/clock"
)

// frozen is a now function that never advances: every write it stamps
// carries the same ModTime, so only the change token can tell versions
// apart.
func frozen() time.Time { return time.Unix(1_600_000_000, 0) }

// tokenStores are the stores that issue change tokens, each behind the
// plain Store interface and on a frozen clock.
func tokenStores() map[string]Store {
	return map[string]Store{
		"memfs":  NewMemFS("s", frozen),
		"object": NewObjectStore("s", frozen),
		"drive":  NewDriveStore("s", clock.NewFake(frozen()), 0, 0),
	}
}

// tokenOf returns the file's token, checking that Stat and the parent's
// List report the same one.
func tokenOf(t *testing.T, s Store, dir, name string) uint64 {
	t.Helper()
	st, err := s.Stat(dir + "/" + name)
	if err != nil {
		t.Fatalf("stat %s: %v", name, err)
	}
	infos, err := s.List(dir)
	if err != nil {
		t.Fatalf("list %s: %v", dir, err)
	}
	for _, fi := range infos {
		if fi.Name == name {
			if fi.Token != st.Token {
				t.Fatalf("%s: List says token %d, Stat says %d", name, fi.Token, st.Token)
			}
			return st.Token
		}
	}
	t.Fatalf("%s not listed in %s", name, dir)
	return 0
}

func TestChangeTokenRetiredByEveryWrite(t *testing.T) {
	for name, s := range tokenStores() {
		t.Run(name, func(t *testing.T) {
			if err := s.Write("/d/f.csv", []byte("aaaa")); err != nil {
				t.Fatal(err)
			}
			if err := s.Write("/d/other.csv", []byte("aaaa")); err != nil {
				t.Fatal(err)
			}
			first := tokenOf(t, s, "/d", "f.csv")
			if first == 0 {
				t.Fatal("file carries no token")
			}
			if again := tokenOf(t, s, "/d", "f.csv"); again != first {
				t.Fatalf("token moved without a write: %d → %d", first, again)
			}
			if other := tokenOf(t, s, "/d", "other.csv"); other == first {
				t.Fatal("two files share a token")
			}
			before, _ := s.Stat("/d/f.csv")

			// Same size, same ModTime, different bytes.
			if err := s.Write("/d/f.csv", []byte("bbbb")); err != nil {
				t.Fatal(err)
			}
			after, _ := s.Stat("/d/f.csv")
			if after.Size != before.Size || !after.ModTime.Equal(before.ModTime) {
				t.Fatalf("test wants size and mtime unchanged: %+v → %+v", before, after)
			}
			second := tokenOf(t, s, "/d", "f.csv")
			if second == first {
				t.Fatal("overwrite kept the token")
			}

			// Same bytes rewritten: still a new token.
			if err := s.Write("/d/f.csv", []byte("bbbb")); err != nil {
				t.Fatal(err)
			}
			third := tokenOf(t, s, "/d", "f.csv")
			if third == second || third == first {
				t.Fatal("rewrite of identical bytes kept a token")
			}

			// Delete and recreate with identical bytes.
			if err := s.Delete("/d/f.csv"); err != nil {
				t.Fatal(err)
			}
			if err := s.Write("/d/f.csv", []byte("bbbb")); err != nil {
				t.Fatal(err)
			}
			if fourth := tokenOf(t, s, "/d", "f.csv"); fourth == third || fourth == second || fourth == first {
				t.Fatal("delete and recreate brought a token back")
			}
		})
	}
}

// Two stores with one name (a restarted service's fresh MemFS, say) never
// hand out each other's tokens.
func TestChangeTokensDistinctAcrossStores(t *testing.T) {
	a, b := NewMemFS("same", frozen), NewMemFS("same", frozen)
	o := NewObjectStore("same", frozen)
	seen := make(map[uint64]bool)
	for i := 0; i < 50; i++ {
		for _, s := range []Store{a, b, o} {
			if err := s.Write("/d/f", []byte("x")); err != nil {
				t.Fatal(err)
			}
			fi, _ := s.Stat("/d/f")
			if fi.Token == 0 || seen[fi.Token] {
				t.Fatalf("token %d issued twice (or zero)", fi.Token)
			}
			seen[fi.Token] = true
		}
	}
}

func TestChangeTokensUniqueUnderConcurrentWrites(t *testing.T) {
	m := NewMemFS("m", frozen)
	o := NewObjectStore("o", frozen)
	var mu sync.Mutex
	seen := make(map[uint64]bool)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var s Store = m
			if g%2 == 1 {
				s = o
			}
			p := "/d/f" + string(rune('a'+g))
			for i := 0; i < 200; i++ {
				if err := s.Write(p, []byte("x")); err != nil {
					t.Error(err)
					return
				}
				fi, _ := s.Stat(p)
				mu.Lock()
				if seen[fi.Token] {
					t.Errorf("token %d issued twice", fi.Token)
				}
				seen[fi.Token] = true
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
}

func TestDirectoriesAndOSStoreCarryNoToken(t *testing.T) {
	m := NewMemFS("m", frozen)
	o := NewObjectStore("o", frozen)
	osd, err := NewOSStore("disk", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Store{m, o, osd} {
		if err := s.Write("/top/sub/f.txt", []byte("x")); err != nil {
			t.Fatal(err)
		}
		infos, err := s.List("/top")
		if err != nil || len(infos) != 1 || !infos[0].IsDir {
			t.Fatalf("%s: list /top = %+v, %v", s.Name(), infos, err)
		}
		if infos[0].Token != 0 {
			t.Errorf("%s: listed directory carries token %d", s.Name(), infos[0].Token)
		}
		if fi, err := s.Stat("/top/sub"); err != nil || fi.Token != 0 {
			t.Errorf("%s: stat of a directory = %+v, %v", s.Name(), fi, err)
		}
	}
	// size + mtime is a heuristic, not a guarantee: OSStore vouches for
	// nothing, so its files are read on every crawl.
	infos, _ := osd.List("/top/sub")
	st, _ := osd.Stat("/top/sub/f.txt")
	if len(infos) != 1 || infos[0].Token != 0 || st.Token != 0 {
		t.Fatalf("OSStore issued a token: list %+v, stat %+v", infos, st)
	}
}

func TestWrappersForwardChangeToken(t *testing.T) {
	inner := NewMemFS("m", frozen)
	if err := inner.Write("/d/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	want := tokenOf(t, inner, "/d", "f")
	for name, s := range map[string]Store{
		"flaky":   NewFlaky(inner, 0),
		"latency": WithLatency(inner, clock.NewFake(frozen()), LatencyProfile{}),
	} {
		if got := tokenOf(t, s, "/d", "f"); got != want {
			t.Errorf("%s: token %d, inner store says %d", name, got, want)
		}
	}
}

// Every document of every job goes through MemFS.Write: the token must
// not add an allocation to it. Under an existing directory a write
// allocates its node (or object) and its copy of the data, nothing else:
// the path is walked in place.
func TestWriteAllocationsUnchangedByToken(t *testing.T) {
	data := []byte("abc")
	for _, tc := range []struct {
		s    Store
		want float64
	}{
		{NewMemFS("m", nil), 2},
		{NewObjectStore("o", nil), 2},
	} {
		write := func() {
			if err := tc.s.Write("/docs/job-1/fam_0.json", data); err != nil {
				t.Fatal(err)
			}
		}
		write()
		if got := testing.AllocsPerRun(1000, write); got != tc.want {
			t.Errorf("%T.Write allocates %v times, want %v", tc.s, got, tc.want)
		}
	}
}

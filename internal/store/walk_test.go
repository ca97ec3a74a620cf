package store

import (
	"fmt"
	"os"
	"path"
	"path/filepath"
	"strings"
	"testing"
)

// raceEnabled is set by race_test.go when the race detector is on: it
// changes allocation counts, so the budgets below skip under it.
var raceEnabled bool

// cleanReference is Clean as it was defined before rooted paths were
// cleaned in place; FuzzCleanMatchesPathClean holds Clean to it.
func cleanReference(p string) string {
	return path.Clean("/" + strings.TrimPrefix(p, "/"))
}

func FuzzCleanMatchesPathClean(f *testing.F) {
	for _, p := range []string{
		"", "/", "//", "///", ".", "..", "/.", "/..", "./", "../", "a", "a/", "/a/", "/a//",
		"/a/b", "a/b/", "//a//b/", "/a/./b", "/a/../b", "/../a", "a/..", "/a/b/..",
		"/é/ü/", "é//ü", "/日本/./語/", "/a\x00b/", "/\xff/..",
	} {
		f.Add(p)
	}
	f.Fuzz(func(t *testing.T, p string) {
		if got, want := Clean(p), cleanReference(p); got != want {
			t.Fatalf("Clean(%q) = %q, path.Clean says %q", p, got, want)
		}
	})
}

// TestCleanOfACleanPathAllocatesNothing: every store operation cleans
// its path first, and the paths callers pass are already clean, so the
// common case returns its input. One ending in a slash is a prefix of it.
func TestCleanOfACleanPathAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	for _, p := range []string{"/", "/docs/job-1/fam_0.json", "/a", "/d/sub/"} {
		if n := testing.AllocsPerRun(100, func() { _ = Clean(p) }); n != 0 {
			t.Errorf("Clean(%q) allocated %.0f times, budget 0", p, n)
		}
	}
}

// TestMemFSReadStaysInItsBudget: a read allocates the caller's copy and
// nothing else; the tree is walked in place.
func TestMemFSReadStaysInItsBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	m := NewMemFS("m", nil)
	if err := m.Write("/src/run-7/data/f.csv", []byte("a,b\n")); err != nil {
		t.Fatal(err)
	}
	read := func() {
		if _, err := m.Read("/src/run-7/data/f.csv"); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(1000, read); n != 1 {
		t.Fatalf("MemFS.Read allocated %.0f times, budget 1", n)
	}
}

// TestMemFSListStaysInItsBudget: a listing allocates the caller's slice
// and nothing else; it is sorted in place, without reflection.
func TestMemFSListStaysInItsBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	m := NewMemFS("m", nil)
	for _, n := range []string{"POSCAR", "INCAR", "run.yaml", "OUTCAR", "sub/x"} {
		if err := m.Write("/data/calc/"+n, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	list := func() {
		if infos, err := m.List("/data/calc"); err != nil || len(infos) != 5 || infos[0].Name != "INCAR" {
			t.Fatalf("List = %+v, %v", infos, err)
		}
	}
	if n := testing.AllocsPerRun(1000, list); n != 1 {
		t.Fatalf("MemFS.List allocated %.0f times, budget 1", n)
	}
}

// TestUncleanSpellingsResolveToOneNode: the in-place walk sees the same
// tree the split-and-join walk did, whatever spelling reaches it.
func TestUncleanSpellingsResolveToOneNode(t *testing.T) {
	m := NewMemFS("m", nil)
	if err := m.Write("a//b/./c.txt", []byte("x")); err != nil {
		t.Fatal(err)
	}
	want, err := m.Stat("/a/b/c.txt")
	if err != nil || want.Path != "/a/b/c.txt" || want.Token == 0 {
		t.Fatalf("Stat = %+v, %v", want, err)
	}
	for _, p := range []string{
		"/a/b/c.txt", "a/b/c.txt", "/a/b/c.txt/", "//a//b//c.txt", "/a/./b/c.txt",
		"/a/x/../b/c.txt", "/../a/b/c.txt", "/a/b/../b/./c.txt//",
	} {
		got, err := m.Stat(p)
		if err != nil || got != want {
			t.Errorf("Stat(%q) = %+v, %v; want %+v", p, got, err, want)
		}
		if data, err := m.Read(p); err != nil || string(data) != "x" {
			t.Errorf("Read(%q) = %q, %v", p, data, err)
		}
	}
	for _, p := range []string{"/a/b", "a/b/", "//a/./b", "/a/b/c.txt/.."} {
		infos, err := m.List(p)
		if err != nil || len(infos) != 1 || infos[0] != want {
			t.Errorf("List(%q) = %+v, %v", p, infos, err)
		}
		if dir, err := m.Stat(p); err != nil || dir.Path != "/a/b" || dir.Name != "b" || !dir.IsDir {
			t.Errorf("Stat(%q) = %+v, %v; want directory /a/b", p, dir, err)
		}
	}
	if err := m.Write("/a/./b//c.txt/", []byte("y")); err != nil {
		t.Fatal(err)
	}
	if infos, _ := m.List("/a/b"); len(infos) != 1 || infos[0].Size != 1 || infos[0].Token == want.Token {
		t.Fatalf("rewrite through another spelling: /a/b lists %+v", infos)
	}
	if _, err := m.Stat("/a/b/c.txt/d"); err != ErrNotDir {
		t.Fatalf("Stat below a file: %v, want ErrNotDir", err)
	}
	if err := m.Write("/a/b/c.txt/d", nil); err != ErrNotDir {
		t.Fatalf("Write below a file: %v, want ErrNotDir", err)
	}
}

// TestOSStoreListStaysInItsBudget: `xtract serve -root` crawls through
// OSStore.List. Over what os.ReadDir and each entry's Info cost, a
// listing allocates each entry's path once and a fixed few more (the
// resolved directory, the path prefix, the result).
func TestOSStoreListStaysInItsBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const files, fixed = 64, 4
	s := newOSStore(t)
	for i := 0; i < files; i++ {
		if err := s.Write(fmt.Sprintf("/d/f%02d.txt", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Write("/d/sub/g.txt", []byte("x")); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(s.Root(), "d")
	readDir := testing.AllocsPerRun(20, func() {
		entries, _ := os.ReadDir(dir)
		for _, e := range entries {
			_, _ = e.Info()
		}
	})
	list := testing.AllocsPerRun(20, func() {
		if infos, err := s.List("/d"); err != nil || len(infos) != files+1 {
			t.Fatalf("List = %d entries, %v", len(infos), err)
		}
	})
	if extra, budget := list-readDir, float64(files+1+fixed); extra > budget {
		t.Fatalf("OSStore.List allocated %.0f times over os.ReadDir's %.0f for %d entries, budget %.0f",
			extra, readDir, files+1, budget)
	}
}

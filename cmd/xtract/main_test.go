package main

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// documents lists the files under dir, relative to it.
func documents(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			rel, _ := filepath.Rel(dir, p)
			out = append(out, rel)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

// The default output directory lies inside the crawled root. A re-run must
// not take the first run's documents for input: the document set is the
// same after every run. (At the parent commit it grew 2 → 4 → 6.)
func TestExtractDoesNotCrawlItsOwnOutput(t *testing.T) {
	root := t.TempDir()
	for name, content := range map[string]string{
		"notes.txt":     "perovskite solar cell absorber layers studied extensively",
		"sub/data.csv":  "x,y\n1,2\n3,4\n",
		"sub/readme.md": "materials data facility sample subset",
	} {
		p := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	out := filepath.Join(root, ".xtract-metadata")
	var first []string
	for run := 1; run <= 3; run++ {
		if err := runExtract([]string{"-root", root, "-workers", "2"}); err != nil {
			t.Fatal(err)
		}
		docs := documents(t, out)
		if run == 1 {
			if first = docs; len(first) != 3 {
				t.Fatalf("first run wrote %d documents for 3 files: %v", len(first), first)
			}
		} else if !reflect.DeepEqual(docs, first) {
			t.Fatalf("run %d left %v, the first run %v", run, docs, first)
		}
	}
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"xtract/internal/clock"
	"xtract/internal/deploy"
	"xtract/internal/journal"
	"xtract/internal/registry"
	"xtract/internal/store"
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
	// The documents are the destination search's input.
	got := printed(t, func() error { return runSearch([]string{"-metadata", out, "-q", "perovskite"}) })
	if !strings.Contains(got, "indexed 3 documents") || strings.Contains(got, "no hits") {
		t.Fatalf("search over the documents printed %q; want a perovskite hit among 3", got)
	}
	// A grouper is a name the service resolves; an unknown one runs nothing.
	err := runExtract([]string{"-root", root, "-grouper", "bogus"})
	if err == nil || !strings.Contains(err.Error(), "unknown grouper") {
		t.Fatalf("extract -grouper bogus = %v; want unknown grouper", err)
	}
}

// printed returns what f writes to standard output, failing on its error.
func printed(t *testing.T, f func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	err = f()
	os.Stdout = stdout
	w.Close()
	out, _ := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// A signal ends serve with a job mid-flight: the job is suspended — live in
// the journal, not CANCELLED — and the next life resumes it. (At the parent
// the signal cancelled every job context before BeginShutdown ran, so the
// job was journaled CANCELLED and recovery refused to resume it.)
func TestSignalSuspendsServesJobs(t *testing.T) {
	root, jdir := t.TempDir(), t.TempDir()
	for i := 0; i < 20; i++ {
		if err := os.WriteFile(filepath.Join(root, fmt.Sprintf("f%02d.txt", i)), []byte("perovskite absorber notes"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// Nobody writes the FIFO, so the crawl's fingerprinting read of it
	// blocks: the job is certainly in flight when the signal comes.
	hold := filepath.Join(root, "hold.txt")
	if err := syscall.Mkfifo(hold, 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	served := make(chan error, 1)
	go func() { served <- runServe([]string{"-root", root, "-addr", addr, "-journal", jdir, "-workers", "2"}) }()

	var job struct {
		JobID string `json:"job_id"`
	}
	for deadline := time.Now().Add(20 * time.Second); job.JobID == ""; time.Sleep(5 * time.Millisecond) {
		resp, err := http.Post("http://"+addr+"/api/v1/jobs", "application/json",
			strings.NewReader(`{"repos":[{"site":"local","roots":["/"],"grouper":"single","crawl_workers":1}]}`))
		if err == nil {
			_ = json.NewDecoder(resp.Body).Decode(&job)
			resp.Body.Close()
		} else if time.Now().After(deadline) {
			t.Fatal(err)
		}
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("serve did not shut down on the signal")
	}

	if w, err := os.OpenFile(hold, os.O_WRONLY|syscall.O_NONBLOCK, 0); err == nil {
		w.Close() // the blocked read sees EOF: the first life's crawl can end
	}
	if err := os.Remove(hold); err != nil {
		t.Fatal(err)
	}
	dir, err := journal.OSDir(jdir)
	if err != nil {
		t.Fatal(err)
	}
	jnl, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	if js := jnl.Recovered().Jobs[job.JobID]; js == nil || js.Terminal {
		t.Fatalf("the signal left job %s as %+v: shutdown must suspend it, not end it", job.JobID, js)
	}
	src, err := store.NewOSStore("local", root)
	if err != nil {
		t.Fatal(err)
	}
	d, err := deploy.New(context.Background(), clock.NewReal(), []deploy.SiteSpec{{Name: "local", Store: src, Workers: 2}},
		deploy.Options{Journal: jnl})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if status, err := d.Service.Recover(d.Ctx); err != nil || status.Resumed != 1 {
		t.Fatalf("recovery = %+v, %v; want the suspended job resumed", status, err)
	}
	d.Service.RecoveryWait()
	if v, ok := d.Service.LookupJob(job.JobID); !ok || v.Record.State != registry.JobComplete {
		t.Fatalf("resumed job = %+v, %v; want COMPLETE", v, ok)
	}
}

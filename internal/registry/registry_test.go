package registry

import (
	"errors"
	"testing"
	"time"

	"xtract/internal/clock"
)

func TestExtractorPutResolveCache(t *testing.T) {
	clk := clock.NewFake(time.Unix(0, 0))
	r := New(clk, 100*time.Millisecond)
	r.PutExtractor(ExtractorRecord{Name: "keyword", FunctionID: "f1", ContainerID: "c1"})

	done := make(chan ExtractorRecord, 1)
	go func() {
		rec, err := r.ResolveExtractor("keyword")
		if err != nil {
			t.Error(err)
		}
		done <- rec
	}()
	for clk.PendingTimers() == 0 {
		time.Sleep(time.Millisecond)
	}
	clk.Advance(100 * time.Millisecond)
	rec := <-done
	if rec.FunctionID != "f1" {
		t.Fatalf("rec = %+v", rec)
	}
	if r.CacheMisses.Load() != 1 {
		t.Fatalf("misses = %d", r.CacheMisses.Load())
	}
	// Cached: resolves instantly, no timer needed.
	rec2, err := r.ResolveExtractor("keyword")
	if err != nil || rec2.FunctionID != "f1" {
		t.Fatalf("cached resolve = %+v, %v", rec2, err)
	}
	if r.CacheHits.Load() != 1 {
		t.Fatalf("hits = %d", r.CacheHits.Load())
	}
}

func TestResolveUnknown(t *testing.T) {
	r := New(clock.NewReal(), 0)
	if _, err := r.ResolveExtractor("nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestPutInvalidatesCache(t *testing.T) {
	r := New(clock.NewReal(), 0)
	r.PutExtractor(ExtractorRecord{Name: "e", FunctionID: "f1"})
	_, _ = r.ResolveExtractor("e")
	r.PutExtractor(ExtractorRecord{Name: "e", FunctionID: "f2"})
	rec, _ := r.ResolveExtractor("e")
	if rec.FunctionID != "f2" {
		t.Fatalf("stale cache: %+v", rec)
	}
}

func TestRunsOn(t *testing.T) {
	any := ExtractorRecord{Name: "a"}
	if !any.RunsOn("anything") {
		t.Fatal("empty endpoint list should run anywhere")
	}
	limited := ExtractorRecord{Name: "b", EndpointIDs: []string{"theta"}}
	if !limited.RunsOn("theta") || limited.RunsOn("midway") {
		t.Fatal("RunsOn endpoint filter broken")
	}
}

func TestExtractorsList(t *testing.T) {
	r := New(clock.NewReal(), 0)
	r.PutExtractor(ExtractorRecord{Name: "a"})
	r.PutExtractor(ExtractorRecord{Name: "b"})
	if got := len(r.Extractors()); got != 2 {
		t.Fatalf("Extractors = %d", got)
	}
}

// The job-record shim still stores and updates what it is given (the
// only reader is the update function).
func TestJobLifecycle(t *testing.T) {
	r := New(clock.NewReal(), 0)
	id := r.CreateJob("", []string{"mdf"}, time.Unix(100, 0))
	var rec JobRecord
	read := func(j *JobRecord) { rec = *j }
	if err := r.UpdateJob(id, read); err != nil {
		t.Fatal(err)
	}
	if rec.State != JobCrawling || rec.Repositories[0] != "mdf" {
		t.Fatalf("rec = %+v", rec)
	}
	if err := r.UpdateJob(id, func(j *JobRecord) {
		j.State = JobExtracting
		j.GroupsCrawled = 42
	}); err != nil {
		t.Fatal(err)
	}
	_ = r.UpdateJob(id, read)
	if rec.State != JobExtracting || rec.GroupsCrawled != 42 {
		t.Fatalf("rec = %+v", rec)
	}
}

func TestJobErrors(t *testing.T) {
	r := New(clock.NewReal(), 0)
	if err := r.UpdateJob("nope", func(*JobRecord) {}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestJobIDsUnique(t *testing.T) {
	r := New(clock.NewReal(), 0)
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		id := r.CreateJob("", nil, time.Now())
		if seen[id] {
			t.Fatalf("duplicate job id %s", id)
		}
		seen[id] = true
	}
}

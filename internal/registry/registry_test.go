package registry

import (
	"errors"
	"testing"
	"time"

	"xtract/internal/clock"
)

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

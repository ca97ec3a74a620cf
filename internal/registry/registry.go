// Package registry defines a job record's shape (JobRecord); the record
// itself is the service's, on its job's handle and then in the journal's
// fold. The paper's RDS also holds the extractor→function→container→
// endpoint tuples; here they live once, in core.Service's function table.
package registry

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"xtract/internal/clock"
)

// ErrNotFound is returned when a record does not exist.
var ErrNotFound = errors.New("registry: not found")

// JobState is the lifecycle state of an extraction job record.
type JobState string

// Job states.
const (
	JobCrawling   JobState = "CRAWLING"
	JobExtracting JobState = "EXTRACTING"
	JobComplete   JobState = "COMPLETE"
	JobFailed     JobState = "FAILED"
	JobCancelled  JobState = "CANCELLED"
	// JobDegraded is a terminal success-with-losses state: the job
	// finished with partial results because some steps dead-lettered
	// within the service's straggler budget.
	JobDegraded JobState = "DEGRADED"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobComplete || s == JobFailed || s == JobCancelled || s == JobDegraded
}

// MaxDeadLetters bounds the dead-letter list retained on a job record;
// quarantines past the cap are counted in DeadLettersDropped instead.
const MaxDeadLetters = 256

// DeadLetter records one poison task (or whole family) quarantined after
// exhausting its retry budget. It is the job's audit trail for the
// "FAILED with a dead-letter report, never hung" convergence guarantee.
type DeadLetter struct {
	// Kind is "step" for a single extractor step or "family" when a
	// whole family was abandoned (e.g. staging could not complete).
	Kind      string    `json:"kind"`
	FamilyID  string    `json:"family_id"`
	GroupID   string    `json:"group_id,omitempty"`
	Extractor string    `json:"extractor,omitempty"`
	Attempts  int       `json:"attempts"`
	Reason    string    `json:"reason"`
	At        time.Time `json:"at"`
}

// JobRecord is the persisted state of one extraction job.
type JobRecord struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	// Tenant owns the job; empty on records predating the tenancy layer
	// (normalized to the default tenant at the API boundary).
	Tenant        string    `json:"tenant,omitempty"`
	Repositories  []string  `json:"repositories"`
	Submitted     time.Time `json:"submitted"`
	GroupsCrawled int64     `json:"groups_crawled"`
	GroupsDone    int64     `json:"groups_done"`
	Err           string    `json:"err,omitempty"`
	// DeadLetters lists quarantined poison tasks, capped at
	// MaxDeadLetters entries.
	DeadLetters []DeadLetter `json:"dead_letters,omitempty"`
	// DeadLettersDropped counts quarantines beyond the cap.
	DeadLettersDropped int64 `json:"dead_letters_dropped,omitempty"`
	// Recovered marks a job restored from the durable journal after a
	// service restart (terminal outcome replayed, or pump resumed).
	Recovered bool `json:"recovered,omitempty"`
}

// AddDeadLetter appends a quarantine record, enforcing MaxDeadLetters.
func (r *JobRecord) AddDeadLetter(dl DeadLetter) {
	if len(r.DeadLetters) >= MaxDeadLetters {
		r.DeadLettersDropped++
		return
	}
	// Copy-on-append so copies of the record handed to readers never
	// share a backing array with later mutations.
	letters := make([]DeadLetter, len(r.DeadLetters), len(r.DeadLetters)+1)
	copy(letters, r.DeadLetters)
	r.DeadLetters = append(letters, dl)
}

// Registry is a shim: no service keeps job records here (a job's record
// lives on its core.Job handle, then in the journal's fold). It, New,
// CreateJob and UpdateJob stay only while the benchmark harness in bench/
// times them as registry.job_update_us (ROADMAP item 1(f)). Safe for
// concurrent use.
type Registry struct {
	mu   sync.Mutex
	jobs map[string]JobRecord
	seq  int
}

// New returns an empty registry; both arguments are unused.
func New(clock.Clock, time.Duration) *Registry {
	return &Registry{jobs: make(map[string]JobRecord)}
}

// CreateJob stores a new job record owned by tenant and returns its ID.
func (r *Registry) CreateJob(tenant string, repositories []string, now time.Time) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	id := fmt.Sprintf("job-%d", r.seq)
	r.jobs[id] = JobRecord{
		ID:           id,
		State:        JobCrawling,
		Tenant:       tenant,
		Repositories: append([]string(nil), repositories...),
		Submitted:    now,
	}
	return id
}

// UpdateJob applies fn to the job record under the registry lock.
func (r *Registry) UpdateJob(id string, fn func(*JobRecord)) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec, ok := r.jobs[id]
	if !ok {
		return fmt.Errorf("%w: job %s", ErrNotFound, id)
	}
	fn(&rec)
	r.jobs[id] = rec
	return nil
}

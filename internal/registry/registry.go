// Package registry is Xtract's record database — the stand-in for the
// AWS RDS instance where the paper stores job records and the
// extractor→function→container→endpoint address tuples. Resolving a tuple
// charges a query latency the first time and is served from cache on
// subsequent lookups, reproducing the Figure 3 observation that the bulk
// of the Xtract-service cost is the first RDS resolve.
package registry

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xtract/internal/clock"
)

// ErrNotFound is returned when a record does not exist.
var ErrNotFound = errors.New("registry: not found")

// ExtractorRecord maps a registered extractor to its FaaS function, its
// container, and the endpoints it can execute on (e.g., Docker-only
// extractors may not run on Singularity-only systems).
type ExtractorRecord struct {
	Name        string   `json:"name"`
	FunctionID  string   `json:"function_id"`
	ContainerID string   `json:"container_id"`
	EndpointIDs []string `json:"endpoint_ids"`
}

// RunsOn reports whether the extractor may execute on endpoint ep.
// An empty EndpointIDs list means "any endpoint".
func (r ExtractorRecord) RunsOn(ep string) bool {
	if len(r.EndpointIDs) == 0 {
		return true
	}
	for _, id := range r.EndpointIDs {
		if id == ep {
			return true
		}
	}
	return false
}

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
// Call it from within Registry.UpdateJob.
func (r *JobRecord) AddDeadLetter(dl DeadLetter) {
	if len(r.DeadLetters) >= MaxDeadLetters {
		r.DeadLettersDropped++
		return
	}
	// Copy-on-append so record copies handed out by Job()/Jobs() never
	// share a backing array with later mutations.
	letters := make([]DeadLetter, len(r.DeadLetters), len(r.DeadLetters)+1)
	copy(letters, r.DeadLetters)
	r.DeadLetters = append(letters, dl)
}

// Registry is the record store. Safe for concurrent use.
type Registry struct {
	clk clock.Clock
	// QueryLatency is charged on every uncached extractor resolve.
	QueryLatency time.Duration

	mu         sync.Mutex
	extractors map[string]ExtractorRecord
	cache      map[string]ExtractorRecord
	jobs       map[string]JobRecord
	seq        int
	idPrefix   string

	CacheHits   atomic.Int64
	CacheMisses atomic.Int64
}

// New returns an empty registry.
func New(clk clock.Clock, queryLatency time.Duration) *Registry {
	return &Registry{
		clk:          clk,
		QueryLatency: queryLatency,
		extractors:   make(map[string]ExtractorRecord),
		cache:        make(map[string]ExtractorRecord),
		jobs:         make(map[string]JobRecord),
	}
}

// PutExtractor stores (or replaces) an extractor record and invalidates
// its cache entry.
func (r *Registry) PutExtractor(rec ExtractorRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.extractors[rec.Name] = rec
	delete(r.cache, rec.Name)
}

// ResolveExtractor returns the record for name, charging QueryLatency on
// a cache miss and caching the result.
func (r *Registry) ResolveExtractor(name string) (ExtractorRecord, error) {
	r.mu.Lock()
	if rec, ok := r.cache[name]; ok {
		r.mu.Unlock()
		r.CacheHits.Add(1)
		return rec, nil
	}
	rec, ok := r.extractors[name]
	r.mu.Unlock()
	r.CacheMisses.Add(1)
	r.clk.Sleep(r.QueryLatency)
	if !ok {
		return ExtractorRecord{}, fmt.Errorf("%w: extractor %s", ErrNotFound, name)
	}
	r.mu.Lock()
	r.cache[name] = rec
	r.mu.Unlock()
	return rec, nil
}

// Extractors lists all registered extractor names.
func (r *Registry) Extractors() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.extractors))
	for name := range r.extractors {
		out = append(out, name)
	}
	return out
}

// SetIDPrefix makes minted job IDs carry a node identity
// ("job-<prefix>-<n>") so serve nodes sharing a journal never collide.
func (r *Registry) SetIDPrefix(p string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.idPrefix = p
}

// MintingNode extracts the node identity embedded in a cluster-minted
// job ID ("job-<node>-<seq>"); it is empty for single-node IDs
// ("job-<seq>").
func MintingNode(jobID string) string {
	rest, ok := strings.CutPrefix(jobID, "job-")
	if !ok {
		return ""
	}
	i := strings.LastIndexByte(rest, '-')
	if i <= 0 {
		return ""
	}
	return rest[:i]
}

// CreateJob persists a new job record owned by tenant and returns its
// ID.
func (r *Registry) CreateJob(tenant string, repositories []string, now time.Time) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	id := fmt.Sprintf("job-%d", r.seq)
	if r.idPrefix != "" {
		id = fmt.Sprintf("job-%s-%d", r.idPrefix, r.seq)
	}
	r.jobs[id] = JobRecord{
		ID:           id,
		State:        JobCrawling,
		Tenant:       tenant,
		Repositories: append([]string(nil), repositories...),
		Submitted:    now,
	}
	return id
}

// RestoreJob reinstates a job record under its original ID — the journal
// recovery path, where IDs must survive a restart so client handles stay
// valid. The ID counter advances past any numeric suffix so jobs created
// after recovery never collide with restored ones.
func (r *Registry) RestoreJob(rec JobRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec.Repositories = append([]string(nil), rec.Repositories...)
	r.jobs[rec.ID] = rec
	var n int
	if _, err := fmt.Sscanf(rec.ID, "job-%d", &n); err == nil && n > r.seq {
		r.seq = n
	}
	if r.idPrefix != "" {
		if _, err := fmt.Sscanf(rec.ID, "job-"+r.idPrefix+"-%d", &n); err == nil && n > r.seq {
			r.seq = n
		}
	}
}

// Job returns a job record.
func (r *Registry) Job(id string) (JobRecord, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rec, ok := r.jobs[id]
	if !ok {
		return JobRecord{}, fmt.Errorf("%w: job %s", ErrNotFound, id)
	}
	return rec, nil
}

// Jobs returns every job record, sorted by submission time and then ID
// (stable across equal timestamps). This backs the job-list API.
func (r *Registry) Jobs() []JobRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]JobRecord, 0, len(r.jobs))
	for _, rec := range r.jobs {
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Submitted.Equal(out[j].Submitted) {
			return out[i].Submitted.Before(out[j].Submitted)
		}
		return out[i].ID < out[j].ID
	})
	return out
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

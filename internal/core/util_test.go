package core

import (
	"context"
	"fmt"
	"math/rand"

	"xtract/internal/journal"
	"xtract/internal/registry"
)

// newSeededRand returns a deterministic rand source for tests.
func newSeededRand() *rand.Rand { return rand.New(rand.NewSource(99)) }

// runSpec runs one job spec to its end: Submit, Wait.
func runSpec(s *Service, ctx context.Context, spec journal.JobSpec) (JobStats, error) {
	j, err := s.Submit(ctx, spec)
	if err != nil {
		return JobStats{}, err
	}
	return j.Wait()
}

// liveJobs is the size of the service's live-job table.
func liveJobs(s *Service) int {
	s.jobs.mu.Lock()
	defer s.jobs.mu.Unlock()
	return len(s.jobs.live)
}

// record is a job's record as the service answers for it.
func record(s *Service, id string) (registry.JobRecord, error) {
	v, ok := s.LookupJob(id)
	if !ok {
		return registry.JobRecord{}, fmt.Errorf("job %s not found", id)
	}
	return v.Record, nil
}

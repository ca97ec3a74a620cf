package core

import (
	"context"
	"math/rand"
)

// newSeededRand returns a deterministic rand source for tests.
func newSeededRand() *rand.Rand { return rand.New(rand.NewSource(99)) }

// runJobOpts is RunJob with per-job options.
func runJobOpts(s *Service, ctx context.Context, repos []RepoSpec, opts JobOptions) (JobStats, error) {
	j, err := s.Submit(ctx, repos, opts)
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

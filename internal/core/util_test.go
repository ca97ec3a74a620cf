package core

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"xtract/internal/journal"
	"xtract/internal/obs"
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

// scrape reads one series from reg's exposition.
func scrape(t *testing.T, reg *obs.Registry, series string) float64 {
	t.Helper()
	var b strings.Builder
	reg.WritePrometheus(&b)
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("bad sample %q: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("series %s absent from exposition", series)
	return 0
}

// afterAppends closes the channel it returns once jnl has accepted n more
// records than it had at the call. It polls the count until then, or
// until the test ends.
func afterAppends(t *testing.T, jnl *journal.Journal, n int64) <-chan struct{} {
	base, _, _ := jnl.Stats()
	ch, stop := make(chan struct{}), make(chan struct{})
	t.Cleanup(func() { close(stop) })
	go func() {
		tick := time.NewTicker(50 * time.Microsecond)
		defer tick.Stop()
		for {
			if a, _, _ := jnl.Stats(); a-base >= n {
				close(ch)
				return
			}
			select {
			case <-tick.C:
			case <-stop:
				return
			}
		}
	}()
	return ch
}

// totals is what every pump has posted to s's process totals, as one
// JobStats.
func totals(s *Service) JobStats {
	var t JobStats
	for i, c := range pumpCounts {
		*c.of(&t) = s.pumpTotals[i].Load()
	}
	return t
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

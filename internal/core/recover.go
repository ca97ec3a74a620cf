package core

import (
	"context"
	"log/slog"
	"time"

	"xtract/internal/cache"
	"xtract/internal/crawler"
	"xtract/internal/fastjson"
	"xtract/internal/journal"
	"xtract/internal/obs"
	"xtract/internal/registry"
	"xtract/internal/tenant"
)

// RecoveredJob is one job's recovery disposition.
type RecoveredJob struct {
	JobID string `json:"job_id"`
	// Disposition is "terminal" (outcome replayed as-is), "cancelled"
	// (durable cancellation honored), "resumed" (pump restarted),
	// "failed" (unrecoverable: an unknown grouper or site), or "foreign"
	// (cluster mode: another node holds the job's lease, so this node
	// leaves it alone).
	Disposition string `json:"disposition"`
	State       string `json:"state,omitempty"`
	// Owner names the lease holder for "foreign" dispositions.
	Owner string `json:"owner,omitempty"`
	// StepsReconciled counts journaled step completions seeded into the
	// result cache so the resumed job replays them instead of re-running
	// extractors.
	StepsReconciled int    `json:"steps_reconciled,omitempty"`
	Families        int    `json:"families,omitempty"`
	Err             string `json:"err,omitempty"`
}

// RecoveryStatus is the published outcome of the recovery pass, served
// by GET /api/v1/recovery.
type RecoveryStatus struct {
	// Enabled reports whether a journal is configured at all.
	Enabled bool `json:"enabled"`
	// Ran reports whether a recovery pass has executed.
	Ran  bool           `json:"ran"`
	Jobs []RecoveredJob `json:"jobs,omitempty"`
	// Aggregates over Jobs, by disposition.
	Resumed         int `json:"resumed"`
	Terminal        int `json:"terminal"`
	Cancelled       int `json:"cancelled"`
	Failed          int `json:"failed"`
	Foreign         int `json:"foreign,omitempty"`
	StepsReconciled int `json:"steps_reconciled"`
	// Journal scan detail (see journal.ReplayInfo).
	Records         int64   `json:"records"`
	Segments        int     `json:"segments"`
	SnapshotUsed    string  `json:"snapshot_used,omitempty"`
	TornTail        bool    `json:"torn_tail,omitempty"`
	CorruptSegments int     `json:"corrupt_segments,omitempty"`
	ElapsedSeconds  float64 `json:"elapsed_seconds"`
}

// Recover replays the configured journal and restores the world it
// describes: terminal jobs (including durable cancellations) answer from
// the journal's fold as they are, and unfinished jobs are re-run under
// their original IDs, the ID counter moved past every journaled one. A
// resumed job's journaled step completions are first seeded into the
// result cache so the resumed pump replays them as cache hits instead of
// re-invoking extractors, which is what makes recovered jobs converge to
// the same results with no duplicated extraction work. A job is terminal
// only once its documents are written, so a resumed job re-finishes every
// family and rewrites their documents byte for byte; nothing the old
// process held in memory needs to be found again.
//
// Recover runs at most once per service; later calls return the first
// pass's status. With no journal configured it is a no-op.
func (s *Service) Recover(ctx context.Context) (RecoveryStatus, error) {
	s.recoveryMu.Lock()
	defer s.recoveryMu.Unlock()
	if s.cfg.Journal == nil {
		return RecoveryStatus{}, nil
	}
	if s.recovery.Ran {
		return s.recovery, nil
	}
	start := s.clk.Now()
	st := s.cfg.Journal.Recovered()
	info := s.cfg.Journal.Info()
	status := RecoveryStatus{
		Enabled:         true,
		Ran:             true,
		Records:         info.Records,
		Segments:        info.Segments,
		SnapshotUsed:    info.SnapshotUsed,
		TornTail:        info.TornTail,
		CorruptSegments: info.CorruptSegments,
	}
	for _, id := range st.JobIDs() {
		s.jobs.advance(id)
		js := st.Jobs[id]
		rj := s.recoverJob(ctx, js)
		status.Jobs = append(status.Jobs, rj)
		status.StepsReconciled += rj.StepsReconciled
		switch rj.Disposition {
		case "resumed":
			status.Resumed++
		case "terminal":
			status.Terminal++
		case "cancelled":
			status.Cancelled++
		case "failed":
			status.Failed++
		case "foreign":
			status.Foreign++
		}
		s.obsRecoveredJobs.With(rj.Disposition).Inc()
	}
	elapsed := s.clk.Since(start)
	status.ElapsedSeconds = elapsed.Seconds()
	s.obsRecoverySeconds.ObserveDuration(elapsed)
	s.recovery = status
	return status, nil
}

// LastRecovery returns the status of the completed recovery pass; ok is
// false when none has run.
func (s *Service) LastRecovery() (RecoveryStatus, bool) {
	s.recoveryMu.Lock()
	defer s.recoveryMu.Unlock()
	return s.recovery, s.recovery.Ran
}

// RecoveryWait blocks until every job Recover resumed has ended (test hook).
func (s *Service) RecoveryWait() {
	status, _ := s.LastRecovery()
	for _, rj := range status.Jobs {
		if j := s.Job(rj.JobID); j != nil && rj.Disposition == "resumed" {
			_, _ = j.Wait()
		}
	}
}

// recoverJob restores one journaled job: its terminal state left to the
// fold, left to the node that holds its lease, failed as unrunnable, or
// resumed.
func (s *Service) recoverJob(ctx context.Context, js *journal.JobState) RecoveredJob {
	if js.Terminal {
		disposition := "terminal"
		if js.Cancelled {
			disposition = "cancelled"
		}
		s.obs.Event(js.ID, obs.EvJobRecovered, slog.String("disposition", disposition), slog.String("state", js.State))
		return RecoveredJob{JobID: js.ID, Disposition: disposition, State: js.State, Err: js.Err}
	}
	if owner, foreign := s.leasedElsewhere(js); foreign {
		s.obs.Event(js.ID, obs.EvJobRecovered, slog.String("disposition", "foreign"), slog.String("owner", owner))
		return RecoveredJob{JobID: js.ID, Disposition: "foreign", Owner: owner}
	}
	if js.Spec == nil {
		return s.failRecovered(js.ID, tenant.Default, "recovery: job has no journaled spec")
	}
	// Tenant ownership survives the restart: pre-tenancy logs have no
	// Tenant field and normalize to the default tenant.
	spec := *js.Spec
	spec.Tenant = tenant.Normalize(spec.Tenant)
	crawls, err := s.resolve(spec)
	if err != nil {
		return s.failRecovered(js.ID, spec.Tenant, "recovery: "+err.Error())
	}
	return s.resumeJob(ctx, js, spec, crawls)
}

// leasedElsewhere is lease-aware recovery: a restarting node re-adopts
// only jobs whose lease it can (re-)take. The journaled lease covers peers
// not reachable through the live coordinator (a fresh process replaying a
// shared log); the AdoptLease call is the authoritative race — whoever
// acquires first, fencing the journaled epoch, owns the resume.
func (s *Service) leasedElsewhere(js *journal.JobState) (owner string, foreign bool) {
	cl := s.cfg.Cluster
	if cl == nil {
		return "", false
	}
	if js.LeaseNode != "" && js.LeaseNode != cl.ID() {
		if exp, err := time.Parse(time.RFC3339Nano, js.LeaseExpiry); err == nil && s.clk.Now().Before(exp) {
			return js.LeaseNode, true
		}
	}
	if err := cl.AdoptLease(js.ID, js.LeaseEpoch); err != nil {
		if l, ok := cl.Coordinator().Holder(js.ID); ok {
			owner = l.Node
		}
		return owner, true
	}
	return "", false
}

// failRecovered journals a job that cannot be run again FAILED rather
// than dropping it; the fold answers for it from then on. Its tenant is
// billed the start beside the outcome.
func (s *Service) failRecovered(jobID, ten, msg string) RecoveredJob {
	s.cfg.Tenants.CountStart(ten)
	s.endJob(jobID, ten, registry.JobFailed, msg)
	s.obs.Warn(jobID, obs.EvJobRecovered, slog.String("disposition", "failed"), slog.String("cause", msg))
	return RecoveredJob{JobID: jobID, Disposition: "failed", State: string(registry.JobFailed), Err: msg}
}

// resumeJob re-runs an unfinished job under its original ID, flagged
// recovered on its record. Its journaled step completions are first
// reconciled with the result cache: family packaging is not deterministic
// across runs, but the cache key is content-addressed — seeding it makes
// the resumed pump replay every pre-crash completion as a cache hit,
// whatever family it lands in. The job was admitted when it was first
// submitted: it takes its tenant slot here, unchecked.
func (s *Service) resumeJob(ctx context.Context, js *journal.JobState, spec journal.JobSpec,
	crawls []*crawler.Crawler) RecoveredJob {
	reconciled := 0
	if s.cfg.Cache != nil && !spec.NoCache {
		for _, sd := range js.Steps {
			// The journal replay already held the bytes to JSON syntax; a
			// step journaled without metadata (null) has nothing to seed.
			if sd.CacheKey == nil || !fastjson.IsObject(sd.Metadata) {
				continue
			}
			s.cfg.Cache.PutRaw(cache.Key{
				ContentHash: sd.CacheKey.ContentHash,
				Extractor:   sd.Extractor,
				Version:     sd.CacheKey.Version,
			}, sd.Metadata)
			reconciled++
		}
	}
	s.obs.Event(js.ID, obs.EvJobRecovered, slog.String("disposition", "resumed"),
		slog.Int64("families", int64(js.Families)), slog.Int("steps_reconciled", reconciled))
	submitted, _ := time.Parse(time.RFC3339Nano, js.Submitted)
	rec := newRecord(js.ID, spec, submitted)
	rec.Recovered = true
	s.cfg.Tenants.JobStarted(spec.Tenant)
	s.runJob(ctx, rec, spec, crawls, nil)
	return RecoveredJob{
		JobID: js.ID, Disposition: "resumed", State: string(registry.JobExtracting),
		StepsReconciled: reconciled, Families: int(js.Families),
	}
}

// AdoptJob fails one journaled job over to this node: the job's live
// fold is snapshotted from the shared journal, its lease acquired with
// the journaled epoch as fencing floor, journaled step completions are
// seeded into the result cache, and the pump re-enters runJob under the
// original job ID. ok is false when the job is unknown, already
// terminal, or still owned elsewhere. Calls for the same job must be
// serialized (Node.Run's scan loop is).
func (s *Service) AdoptJob(ctx context.Context, jobID string) (RecoveredJob, bool) {
	if s.cfg.Journal == nil || s.cfg.Cluster == nil {
		return RecoveredJob{}, false
	}
	if s.cfg.Cluster.HoldsLive(jobID) {
		return RecoveredJob{}, false // already running here
	}
	js, ok := s.cfg.Journal.JobSnapshot(jobID)
	if !ok || js.Terminal {
		return RecoveredJob{}, false
	}
	rj := s.recoverJob(ctx, js)
	s.obsRecoveredJobs.With(rj.Disposition).Inc()
	return rj, rj.Disposition == "resumed"
}

// FailoverScan sweeps the journal's live fold for non-terminal jobs
// with no live lease whose placement-ring owner is this node, and
// adopts each one. The scan is the cluster's failover engine: when a
// node dies, its leases expire, and the next scan on the ring successor
// picks the orphaned jobs up. Returns the number of jobs adopted.
func (s *Service) FailoverScan(ctx context.Context) int {
	if s.cfg.Journal == nil || s.cfg.Cluster == nil || s.draining.Load() {
		return 0
	}
	adopted := 0
	for _, id := range s.cfg.Journal.LiveJobs() {
		if ctx.Err() != nil {
			return adopted
		}
		if s.cfg.Cluster.HoldsLive(id) {
			continue // running here already
		}
		if _, held := s.cfg.Cluster.Coordinator().Holder(id); held {
			continue // live lease elsewhere: sticky, no rebalance mid-run
		}
		if !s.cfg.Cluster.Owns(id) {
			continue // the ring places this orphan on another node
		}
		if _, ok := s.AdoptJob(ctx, id); ok {
			adopted++
		}
	}
	return adopted
}

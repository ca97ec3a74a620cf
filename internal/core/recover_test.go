package core

// recover_test.go pins what recovery restores besides the work itself:
// tenant ownership across the journal's kill-restart boundary — logs
// written before the tenancy layer existed (no "tenant" key on the
// job_submitted spec) replay as the default tenant — a finished job's
// dead-letter report, and, on a cluster node, which journaled jobs are
// its to resume.

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"xtract/internal/clock"
	"xtract/internal/cluster"
	"xtract/internal/journal"
	"xtract/internal/registry"
	"xtract/internal/scheduler"
	"xtract/internal/tenant"
)

// TestTenantOwnershipSurvivesRestart drains a tenant-owned job mid-run
// (the graceful-shutdown path), restarts over the same journal, and
// requires the resumed job to carry the same normalized tenant in both
// the journal's recovered spec and the job's record, and to ship the
// documents of an uninterrupted job with the same grouper: recovery
// re-runs the grouper the job was submitted with, whichever it was.
func TestTenantOwnershipSurvivesRestart(t *testing.T) {
	for _, grouper := range []string{"single", "matio"} {
		t.Run(grouper, func(t *testing.T) {
			life := func(w *world, delay time.Duration) *harness {
				return w.start(t, node{policy: scheduler.LocalPolicy{}, inv: newInvLog(), delay: delay, mut: withCache})
			}
			// Mixed-case, padded identity: recovery must see the normalized
			// form, proving normalization happens at the boundary, not ad hoc.
			submit := func(w *world, h *harness) *Job {
				job, err := h.svc.Submit(h.ctx, journal.JobSpec{Tenant: " Alice ", Repos: w.repos(grouper)})
				if err != nil {
					t.Fatal(err)
				}
				return job
			}
			ctl := systemWorld(t, oneSite)
			stats, err := submit(ctl, life(ctl, 0)).Wait()
			if err != nil || stats.FamiliesFailed != 0 || stats.StepsDeadLettered != 0 {
				t.Fatalf("control job not clean: %+v, %v", stats, err)
			}
			want := ctl.docs(t, int(stats.FamiliesDone))

			w := systemWorld(t, oneSite)
			life1 := life(w, 2*time.Millisecond)
			drained := afterAppends(t, w.jnl, 5)
			job := submit(w, life1)
			select {
			case <-drained:
			case <-time.After(60 * time.Second):
				t.Fatal("job produced no journal records")
			}
			life1.kill()
			if _, err := job.Wait(); err == nil {
				t.Fatal("job completed despite shutdown (shrink the corpus or slow extraction)")
			}
			if err := w.jnl.Close(); err != nil {
				t.Fatal(err)
			}
			w.jnl = nil

			life2 := life(w, 0)
			if js, ok := w.jnl.Recovered().Jobs[job.ID]; !ok || js.Spec == nil || js.Spec.Tenant != "alice" {
				t.Fatalf("journaled job = %+v, want its spec owned by alice", js)
			}
			if status, err := life2.svc.Recover(life2.ctx); err != nil || status.Resumed != 1 {
				t.Fatalf("recovery = %+v, %v; want the job resumed", status, err)
			}
			if rec, err := record(life2.svc, job.ID); err != nil || rec.Tenant != "alice" {
				t.Fatalf("recovered job record = %+v, %v; want tenant alice", rec, err)
			}
			life2.svc.RecoveryWait()
			w.docsAre(t, want)
		})
	}
}

// TestPreTenantJournalReplaysAsDefault hand-writes a journal whose
// job_submitted spec carries no tenant key — byte-identical to a log
// written before the tenancy layer — and requires replay to adopt the
// job under the default tenant and run it to completion. A second spec
// names a grouper this library lacks: that job is failed, not run.
func TestPreTenantJournalReplaysAsDefault(t *testing.T) {
	w := systemWorld(t, oneSite)
	jnl, err := journal.Open(w.jdir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// An empty Tenant marshals to no "tenant" key at all (omitempty),
	// which is exactly what a pre-tenant writer produced.
	const jobID = "job-pre-tenant"
	for id, grouper := range map[string]string{jobID: "single", "job-bogus": "bogus"} {
		if err := jnl.Append(journal.Record{Type: journal.RecJobSubmitted, JobID: id, At: time.Now(),
			Spec: &journal.JobSpec{Repos: []journal.RepoSpec{{Site: "theta", Roots: []string{"/data"}, Grouper: grouper,
				NoMinTransfers: true}}}}); err != nil {
			t.Fatal(err)
		}
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	h := w.start(t, node{policy: scheduler.LocalPolicy{}, mut: withCache})
	if js, ok := w.jnl.Recovered().Jobs[jobID]; !ok || js.Spec == nil || js.Spec.Tenant != "" {
		t.Fatalf("journal replayed the hand-written job as %+v", js)
	}
	if status, err := h.svc.Recover(h.ctx); err != nil || status.Resumed != 1 || status.Failed != 1 {
		t.Fatalf("recovery = %+v, %v; want one job resumed, the unknown grouper's failed", status, err)
	}
	if rec, err := record(h.svc, "job-bogus"); err != nil || rec.State != registry.JobFailed {
		t.Fatalf("unknown grouper's job = %+v, %v; want FAILED", rec, err)
	}
	if rec, err := record(h.svc, jobID); err != nil || rec.Tenant != tenant.Default {
		t.Fatalf("pre-tenant job adopted as %+v, %v; want tenant %q", rec, err, tenant.Default)
	}
	// The adopted job must actually run to completion under the default
	// tenant, not just be relabeled.
	h.svc.RecoveryWait()
	if rec, err := record(h.svc, jobID); err != nil || rec.State != registry.JobComplete {
		t.Fatalf("recovered pre-tenant job = %+v, %v; want COMPLETE", rec, err)
	}
}

// A journaled job whose site this service no longer registers is failed
// by recovery, disposition failed, without ever running: it takes no
// tenant slot, and is billed its start beside its outcome. (It used to be
// resumed, then failed by its pump.)
func TestRecoveredJobWithoutItsSiteFails(t *testing.T) {
	w := newWorld(t, []siteSpec{{name: "theta", workers: 1}})
	w.jdir = newDevice()
	jnl, err := journal.Open(w.jdir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := jnl.Append(journal.Record{Type: journal.RecJobSubmitted, JobID: "job-1", At: time.Now(),
		Spec: &journal.JobSpec{Repos: []journal.RepoSpec{{Site: "gone", Roots: []string{"/data"}, Grouper: "single"}}}}); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	ctrl := tenant.NewController(tenant.Config{})
	h := w.start(t, node{mut: func(cfg *Config) { cfg.Tenants = ctrl }})
	status, err := h.svc.Recover(h.ctx)
	if err != nil || status.Failed != 1 || status.Resumed != 0 {
		t.Fatalf("recovery = %+v, %v; want the job failed", status, err)
	}
	if rj := status.Jobs[0]; rj.Disposition != "failed" || !strings.Contains(rj.Err, `unknown site "gone"`) {
		t.Fatalf("recovered job = %+v; want failed for its unknown site", rj)
	}
	if u, _ := ctrl.UsageFor(tenant.Default); u.ActiveJobs != 0 || u.JobsStarted != 1 || u.JobsFailed != 1 {
		t.Fatalf("tenant usage = %+v; want one job started and failed, holding no slot", u)
	}
}

// A job cancelled with steps in the dead-letter queue comes back from
// recovery with the same dead-letter report: the audit trail that
// explains a failed or degraded family outlives the process. (At the
// parent commit the journal's fold kept only counts, and the recovered
// record had no dead letters.)
func TestRecoveredJobKeepsItsDeadLetters(t *testing.T) {
	w := newWorld(t, []siteSpec{{name: "theta", workers: 2, exclude: []string{"keyword"}}})
	seedScience(t, w.sites["theta"], "/data")
	w.jdir = newDevice()
	life1 := w.start(t, node{policy: scheduler.LocalPolicy{}, inv: newInvLog(), delay: 500 * time.Millisecond,
		mut: func(cfg *Config) { cfg.Retry = RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Millisecond} }})
	job, err := life1.svc.Submit(life1.ctx, journal.JobSpec{Repos: w.repos("single")})
	if err != nil {
		t.Fatal(err)
	}
	// keyword is not deployed at the site: its steps are quarantined while
	// the slowed extractions of the others keep the job running.
	eventually(t, "a step dead-lettered", func() bool {
		rec, _ := record(life1.svc, job.ID)
		return len(rec.DeadLetters) > 0
	})
	life1.svc.Cancel(job.ID)
	if _, err := job.Wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("the job ended with %v, want it cancelled", err)
	}
	before, _ := record(life1.svc, job.ID)
	life1.kill()
	if err := w.jnl.Close(); err != nil {
		t.Fatal(err)
	}
	w.jnl = nil

	life2 := w.start(t, node{policy: scheduler.LocalPolicy{}})
	if status, err := life2.svc.Recover(life2.ctx); err != nil || status.Cancelled != 1 {
		t.Fatalf("recovery = %+v, %v; want the job recovered cancelled", status, err)
	}
	after, err := record(life2.svc, job.ID)
	if err != nil || len(after.DeadLetters) != len(before.DeadLetters) {
		t.Fatalf("recovered record has %d dead letters (%v), the cancelled job had %d: %+v",
			len(after.DeadLetters), err, len(before.DeadLetters), after.DeadLetters)
	}
	for i, dl := range after.DeadLetters {
		want := before.DeadLetters[i]
		if !dl.At.Equal(want.At) {
			t.Errorf("dead letter %d at %v, want %v", i, dl.At, want.At)
		}
		dl.At = want.At
		if dl != want {
			t.Errorf("dead letter %d = %+v, want %+v", i, dl, want)
		}
	}
}

// TestRecoverIsLeaseAware pins the lease-aware restart path: a node
// replaying a shared journal must not re-adopt a live job another node
// owns — it reports it foreign — and must still resume jobs it can lease
// (unleased, or its own expired lease).
func TestRecoverIsLeaseAware(t *testing.T) {
	clk := clock.NewFake(time.Unix(1700000000, 0))
	w := newWorld(t, []siteSpec{{name: "site", workers: 1}})
	w.jdir = newDevice()
	jnl, err := journal.Open(w.jdir, journal.Options{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	spec := &journal.JobSpec{Repos: []journal.RepoSpec{{
		Site: "site", Roots: []string{"/data"}, Grouper: "single", NoMinTransfers: true,
	}}}
	for _, rec := range []journal.Record{
		// owned elsewhere: n2 holds a live lease (epoch 7, long TTL).
		{Type: journal.RecJobSubmitted, JobID: "job-n2-1", Spec: spec},
		{Type: journal.RecLeaseAcquired, JobID: "job-n2-1", Node: "n2", Epoch: 7, TTLMS: 3600_000},
		// orphaned: n3's lease has already expired by replay time.
		{Type: journal.RecJobSubmitted, JobID: "job-n3-1", Spec: spec},
		{Type: journal.RecLeaseAcquired, JobID: "job-n3-1", Node: "n3", Epoch: 4, TTLMS: 1},
	} {
		if err := jnl.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second) // past n3's TTL, inside n2's

	leases := &leaseLog{}
	n1 := cluster.NewNode(cluster.NewCoordinator(cluster.Options{Clock: clk, LeaseTTL: time.Hour, Journal: leases}), "n1", "mem://n1")
	h := w.start(t, node{clk: clk, policy: scheduler.LocalPolicy{}, mut: func(cfg *Config) { cfg.Cluster = n1 }})
	status, err := h.svc.Recover(h.ctx)
	if err != nil {
		t.Fatal(err)
	}
	if status.Foreign != 1 || status.Resumed != 1 {
		t.Fatalf("recovery = %+v, want 1 foreign + 1 resumed", status)
	}
	for _, rj := range status.Jobs {
		switch rj.JobID {
		case "job-n2-1":
			if rj.Disposition != "foreign" || rj.Owner != "n2" {
				t.Errorf("live-leased job disposition = %+v, want foreign owned by n2", rj)
			}
			if n1.HoldsLive("job-n2-1") {
				t.Error("restarting node stole a live lease")
			}
		case "job-n3-1":
			if rj.Disposition != "resumed" {
				t.Errorf("orphaned job disposition = %+v, want resumed", rj)
			}
		}
	}
	h.svc.RecoveryWait()
	// The adopted lease must fence the dead owner's journaled epoch. The
	// resumed job has no families and may end, releasing its lease, before
	// anything could ask n1 for it: the lease's own record outlives it.
	adopted := leases.acquired("job-n3-1", "n1")
	if len(adopted) != 1 || adopted[0] <= 4 {
		t.Errorf("n1 acquired job-n3-1 at epochs %v, want once above the journaled epoch 4", adopted)
	}
}

// leaseLog is a coordinator's lease journal kept in memory.
type leaseLog struct {
	mu   sync.Mutex
	recs []journal.Record
}

func (l *leaseLog) Append(rec journal.Record) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recs = append(l.recs, rec)
	return nil
}

// acquired lists the epochs node acquired jobID's lease at.
func (l *leaseLog) acquired(jobID, node string) []int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []int64
	for _, r := range l.recs {
		if r.Type == journal.RecLeaseAcquired && r.JobID == jobID && r.Node == node {
			out = append(out, r.Epoch)
		}
	}
	return out
}

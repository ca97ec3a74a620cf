package core

// tenant_recovery_test.go pins tenant ownership across the journal's
// kill-restart boundary: a job submitted by a tenant must come back
// owned by the same tenant after a restart, and logs written before the
// tenancy layer existed (no "tenant" key on the job_submitted spec)
// must replay as the default tenant.

import (
	"sync/atomic"
	"testing"
	"time"

	"xtract/internal/journal"
	"xtract/internal/registry"
	"xtract/internal/store"
	"xtract/internal/tenant"
)

// TestTenantOwnershipSurvivesRestart drains a tenant-owned job mid-run
// (the graceful-shutdown path), restarts over the same journal, and
// requires the resumed job to carry the same normalized tenant in both
// the journal's recovered spec and the registry record.
func TestTenantOwnershipSurvivesRestart(t *testing.T) {
	control := crashControlRun(t)
	dataFS := seedCrashCorpus(t)
	dest := store.NewMemFS("user-dest", nil)
	jpath := t.TempDir()

	inv1 := newInvLog()
	life1 := startCrashLife(t, jpath, dataFS, dest, inv1, 2*time.Millisecond)
	drainCh := make(chan struct{})
	var appended atomic.Int64
	life1.jnl.Observe(func(string) {
		if appended.Add(1) == 5 {
			close(drainCh)
		}
	}, nil)
	// Mixed-case, padded identity: recovery must see the normalized
	// form, proving normalization happens at the boundary, not ad hoc.
	job, err := life1.svc.Submit(life1.ctx, crashRepos(inv1, 2*time.Millisecond), JobOptions{Tenant: " Alice "})
	if err != nil {
		t.Fatal(err)
	}
	jobID := job.ID
	jobDone := make(chan error, 1)
	go func() {
		_, err := job.Wait()
		jobDone <- err
	}()
	select {
	case <-drainCh:
	case <-time.After(60 * time.Second):
		t.Fatal("job produced no journal records")
	}
	life1.svc.BeginShutdown()
	life1.cancel()
	select {
	case err := <-jobDone:
		if err == nil {
			t.Fatal("job completed despite shutdown (shrink the corpus or slow extraction)")
		}
	case <-time.After(60 * time.Second):
		t.Fatal("job did not stop on shutdown")
	}
	if err := life1.jnl.Close(); err != nil {
		t.Fatal(err)
	}

	inv2 := newInvLog()
	life2 := startCrashLife(t, jpath, dataFS, dest, inv2, 0)
	defer func() {
		life2.cancel()
		_ = life2.jnl.Close()
	}()
	js, ok := life2.jnl.Recovered().Jobs[jobID]
	if !ok || js.Spec == nil {
		t.Fatalf("journal lost the job spec: %+v", js)
	}
	if js.Spec.Tenant != "alice" {
		t.Fatalf("journaled tenant = %q, want %q", js.Spec.Tenant, "alice")
	}
	status, err := life2.svc.Recover(life2.ctx)
	if err != nil {
		t.Fatal(err)
	}
	if status.Resumed != 1 {
		t.Fatalf("recovery resumed %d jobs, want 1: %+v", status.Resumed, status)
	}
	rec, err := life2.svc.cfg.Registry.Job(jobID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Tenant != "alice" {
		t.Fatalf("recovered registry tenant = %q, want %q", rec.Tenant, "alice")
	}
	life2.svc.RecoveryWait()
	deadline := time.Now().Add(30 * time.Second)
	for !docsEqual(snapshotDocs(t, dest), control.docs) {
		if time.Now().After(deadline) {
			t.Fatal("destination never converged after tenant-owned restart")
		}
		life2.valsvc.Drain()
		time.Sleep(2 * time.Millisecond)
	}
}

// TestPreTenantJournalReplaysAsDefault hand-writes a journal whose
// job_submitted spec carries no tenant key — byte-identical to a log
// written before the tenancy layer — and requires replay to adopt the
// job under the default tenant.
func TestPreTenantJournalReplaysAsDefault(t *testing.T) {
	// An empty Tenant marshals to no "tenant" key at all (omitempty),
	// which is exactly what a pre-tenant writer produced.
	dataFS := seedCrashCorpus(t)
	dest := store.NewMemFS("user-dest", nil)
	jpath := t.TempDir()

	jdir, err := journal.OSDir(jpath)
	if err != nil {
		t.Fatal(err)
	}
	jnl, err := journal.Open(jdir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := &journal.JobSpec{Repos: []journal.RepoSpec{{
		Site: "site", Roots: []string{"/data"}, Grouper: "single",
		NoMinTransfers: true,
	}}}
	const jobID = "job-pre-tenant"
	if err := jnl.Append(journal.Record{
		Type: journal.RecJobSubmitted, JobID: jobID,
		At: time.Now(), Spec: spec,
	}); err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	inv := newInvLog()
	life := startCrashLife(t, jpath, dataFS, dest, inv, 0)
	defer func() {
		life.cancel()
		_ = life.jnl.Close()
	}()
	js, ok := life.jnl.Recovered().Jobs[jobID]
	if !ok || js.Spec == nil {
		t.Fatalf("journal lost the hand-written job: %+v", js)
	}
	if js.Spec.Tenant != "" {
		t.Fatalf("pre-tenant spec replayed with tenant %q", js.Spec.Tenant)
	}
	status, err := life.svc.Recover(life.ctx)
	if err != nil {
		t.Fatal(err)
	}
	if status.Resumed != 1 {
		t.Fatalf("recovery resumed %d jobs, want 1: %+v", status.Resumed, status)
	}
	rec, err := life.svc.cfg.Registry.Job(jobID)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Tenant != tenant.Default {
		t.Fatalf("pre-tenant job adopted by %q, want %q", rec.Tenant, tenant.Default)
	}
	life.svc.RecoveryWait()
	// The adopted job must actually run to completion under the default
	// tenant, not just be relabeled.
	deadline := time.Now().Add(30 * time.Second)
	for {
		rec, err = life.svc.cfg.Registry.Job(jobID)
		if err != nil {
			t.Fatal(err)
		}
		if rec.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovered pre-tenant job never finished (state %s)", rec.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if rec.State != registry.JobComplete {
		t.Fatalf("recovered pre-tenant job ended %s (%s)", rec.State, rec.Err)
	}
}

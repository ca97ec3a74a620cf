package api_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"xtract/internal/api"
	"xtract/internal/cluster"
	"xtract/internal/core"
	"xtract/internal/journal"
	"xtract/internal/sdk"
	"xtract/internal/store"
)

// TestRecoveryEndpointDisabled: a service without a journal reports
// recovery as disabled and never ran.
func TestRecoveryEndpointDisabled(t *testing.T) {
	client, _, done := newTestServer(t, false)
	defer done()

	resp, err := client.Recovery()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Enabled || resp.Status.Ran {
		t.Fatalf("recovery = %+v, want disabled", resp)
	}
}

// TestRecoveryEndpointReportsRestoredJobs: a journal written by a
// previous "process" is replayed at startup; GET /api/v1/recovery serves
// the pass's outcome and restored jobs carry the recovered flag in the
// job list.
func TestRecoveryEndpointReportsRestoredJobs(t *testing.T) {
	jpath := t.TempDir()
	jdir, err := journal.OSDir(jpath)
	if err != nil {
		t.Fatal(err)
	}
	prev, err := journal.Open(jdir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := &journal.JobSpec{Repos: []journal.RepoSpec{{
		Site: "local", Roots: []string{"/data"}, Grouper: "single",
	}}}
	for _, rec := range []journal.Record{
		{Type: journal.RecJobSubmitted, JobID: "job-1", Spec: spec},
		{Type: journal.RecJobTerminal, JobID: "job-1", State: "COMPLETE"},
		{Type: journal.RecJobSubmitted, JobID: "job-2", Spec: spec},
		{Type: journal.RecJobCancelled, JobID: "job-2", Err: "context canceled"},
	} {
		if err := prev.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := prev.Close(); err != nil {
		t.Fatal(err)
	}

	jdir2, err := journal.OSDir(jpath)
	if err != nil {
		t.Fatal(err)
	}
	jnl, err := journal.Open(jdir2, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	client, _, deps, done := newTestServerDepsCfg(t, false, nil, func(cfg *core.Config) {
		cfg.Journal = jnl
	})
	defer done()
	defer jnl.Close()

	// Before the pass runs the endpoint reports enabled-but-not-ran.
	resp, err := client.Recovery()
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Enabled || resp.Status.Ran {
		t.Fatalf("pre-recovery = %+v, want enabled and not ran", resp)
	}

	if _, err := deps.Svc.Recover(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err = client.Recovery()
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Enabled || !resp.Status.Ran {
		t.Fatalf("recovery = %+v, want enabled and ran", resp)
	}
	if resp.Status.Terminal != 1 || resp.Status.Cancelled != 1 || resp.Status.Resumed != 0 {
		t.Fatalf("dispositions = %+v", resp.Status)
	}
	if resp.Status.Records != 4 || resp.Status.TornTail {
		t.Fatalf("journal scan = %+v", resp.Status)
	}

	// Both restored jobs surface in the list with the recovered flag; a
	// direct status fetch still resolves the original IDs.
	list, err := client.ListJobs("", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	recovered := 0
	for _, j := range list.Jobs {
		if j.Recovered {
			recovered++
		}
	}
	if recovered != 2 {
		t.Fatalf("job list shows %d recovered jobs, want 2: %+v", recovered, list.Jobs)
	}
	st, err := client.JobStatus("job-2")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "CANCELLED" {
		t.Fatalf("job-2 state = %s, want CANCELLED", st.State)
	}
}

// TestCancelReachesRecoveredAndAdoptedJobs: DELETE /jobs/{id} finds a job
// the service resumed from its journal, or adopted from a dead node, as it
// finds one submitted a moment ago — through the service's own live-job
// table, with nothing registered by whoever started the recovery or the
// scan. The job ends CANCELLED and a second DELETE is a conflict.
func TestCancelReachesRecoveredAndAdoptedJobs(t *testing.T) {
	for _, tc := range []struct {
		name, jobID string
		clustered   bool
	}{
		{"resumed by Recover", "job-1", false},
		{"adopted by FailoverScan", "job-n0-1", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := journal.StoreDir(store.NewMemFS("journal-disk", nil), "/wal")
			prev, err := journal.Open(dir, journal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := prev.Append(journal.Record{Type: journal.RecJobSubmitted, JobID: tc.jobID, Spec: &journal.JobSpec{
				Repos: []journal.RepoSpec{{Site: "local", Roots: []string{"/data"}, Grouper: "single", CrawlWorkers: 1}},
			}}); err != nil {
				t.Fatal(err)
			}
			if err := prev.Close(); err != nil {
				t.Fatal(err)
			}
			jnl, err := journal.Open(dir, journal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer jnl.Close()
			var node *cluster.Node
			if tc.clustered {
				node = cluster.NewNode(cluster.NewCoordinator(cluster.Options{Journal: jnl}), "n1", "")
			}
			// The slow listing keeps the job running until it is cancelled.
			client, _, deps, done := newTestServerDepsCfg(t, false,
				func(s store.Store) store.Store { return &slowStore{Store: s, delay: 100 * time.Millisecond} },
				func(cfg *core.Config) { cfg.Journal, cfg.Cluster = jnl, node })
			defer done()
			if tc.clustered {
				deps.Server.SetCluster(node)
				if n := deps.Svc.FailoverScan(context.Background()); n != 1 {
					t.Fatalf("the failover scan adopted %d jobs, want 1", n)
				}
			} else if status, err := deps.Svc.Recover(context.Background()); err != nil || status.Resumed != 1 {
				t.Fatalf("recovery = %+v, %v; want the one job resumed", status, err)
			}

			if st, err := client.JobStatus(tc.jobID); err != nil || st.Complete || st.State != "EXTRACTING" {
				t.Fatalf("status before the cancel = %+v, %v; want EXTRACTING and running", st, err)
			}
			if err := client.CancelJob(tc.jobID); err != nil {
				t.Fatalf("DELETE on the %s job: %v", tc.name, err)
			}
			st, err := client.WaitJob(tc.jobID, time.Millisecond, 10*time.Second)
			if err != nil || st.State != "CANCELLED" || !st.Complete {
				t.Fatalf("status after the cancel = %+v, %v; want CANCELLED and complete", st, err)
			}
			var apiErr *sdk.APIError
			if err := client.CancelJob(tc.jobID); !errors.As(err, &apiErr) || apiErr.Code != api.CodeJobNotRunning {
				t.Fatalf("second DELETE = %v, want %s", err, api.CodeJobNotRunning)
			}
		})
	}
}

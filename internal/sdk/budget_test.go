package sdk

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"xtract/internal/api"
	"xtract/internal/auth"
	"xtract/internal/clock"
	"xtract/internal/deploy"
	"xtract/internal/store"
)

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// TestStatusRoundTripStaysInItsBudget holds one authenticated JobStatus
// poll of a finished job — the SDK's request and its decode, loopback
// HTTP on a kept-alive connection, the token check, the route and the
// job view the server renders — to a fixed number of allocations, client
// and server together. The race detector changes the count, so the test
// skips under it.
func TestStatusRoundTripStaysInItsBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const budget = 114 // 135 before the token memo and the SDK's one no-redirect client
	clk := clock.NewReal()
	repo := store.NewMemFS("site", nil)
	if err := repo.Write("/r/notes.txt", []byte("temperature salinity depth")); err != nil {
		t.Fatal(err)
	}
	d, err := deploy.New(context.Background(), clk, []deploy.SiteSpec{{Name: "site", Store: repo, Workers: 1}}, deploy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	issuer := auth.NewIssuer([]byte("budget-key"), clk)
	srv := api.NewServer(d.Service, d.Registry, d.Library, issuer)
	srv.SetObserver(d.Obs)
	srv.SetBaseContext(d.Ctx)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := New(ts.URL, issuer.Issue("alice", []string{auth.ScopeExtract}, time.Hour))
	defer c.HTTPClient.CloseIdleConnections()
	id, err := c.Submit(api.JobRequest{Repos: []api.RepoRequest{{Site: "site", Roots: []string{"/r"}, Grouper: "single"}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitJob(id, time.Millisecond, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	poll := func() {
		st, err := c.JobStatus(id)
		if err != nil || !st.Complete || st.Done != 1 {
			t.Fatalf("status = %+v, %v; want the job complete", st, err)
		}
	}
	allocs := testing.AllocsPerRun(200, poll)
	t.Logf("%.0f allocations for one status poll", allocs)
	if allocs > budget {
		t.Fatalf("one status poll allocated %.0f times, budget %d", allocs, budget)
	}
}

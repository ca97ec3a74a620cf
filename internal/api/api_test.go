package api_test

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"xtract/internal/api"
	"xtract/internal/auth"
	"xtract/internal/clock"
	"xtract/internal/core"
	"xtract/internal/extractors"
	"xtract/internal/faas"
	"xtract/internal/index"
	"xtract/internal/obs"
	"xtract/internal/queue"
	"xtract/internal/registry"
	"xtract/internal/sdk"
	"xtract/internal/store"
	"xtract/internal/transfer"
	"xtract/internal/validate"
)

// testDeps exposes the pieces of a test deployment individual tests poke.
type testDeps struct {
	Server  *api.Server
	Store   *store.MemFS
	Dest    *store.MemFS
	Results *queue.Queue
	Svc     *core.Service
	Obs     *obs.Observer
}

// newTestServer stands up a full service with one compute site behind the
// REST API and returns a client plus the issuer.
func newTestServer(t *testing.T, withAuth bool) (*sdk.XtractClient, *auth.Issuer, func()) {
	client, issuer, _, done := newTestServerDeps(t, withAuth, nil)
	return client, issuer, done
}

// newTestServerDeps is newTestServer, additionally exposing test hooks and
// letting the caller wrap the site's data layer (e.g., to slow listings).
func newTestServerDeps(t *testing.T, withAuth bool, wrapStore func(store.Store) store.Store) (*sdk.XtractClient, *auth.Issuer, *testDeps, func()) {
	t.Helper()
	return newTestServerDepsCfg(t, withAuth, wrapStore, nil)
}

// newTestServerDepsCfg additionally applies a core.Config hook before the
// service is built (e.g. to attach a result cache).
func newTestServerDepsCfg(t *testing.T, withAuth bool, wrapStore func(store.Store) store.Store, cfgMut func(*core.Config)) (*sdk.XtractClient, *auth.Issuer, *testDeps, func()) {
	t.Helper()
	clk := clock.NewReal()
	o := obs.New(clk)
	fsvc := faas.NewService(clk, faas.Costs{})
	fsvc.Instrument(o.Reg())
	fabric := transfer.NewFabric(clk)
	fabric.Instrument(o.Reg())
	reg := registry.New(clk, 0)
	lib := extractors.DefaultLibrary()
	families, prefetch, prefetchDone, results := core.NewQueues(clk)
	for _, q := range []*queue.Queue{families, prefetch, prefetchDone, results} {
		q.Instrument(o.Reg())
	}

	cfg := core.Config{
		Clock: clk, FaaS: fsvc, Fabric: fabric, Registry: reg, Library: lib,
		PrefetchQueue: prefetch,
		PrefetchDone:  prefetchDone, ResultQueue: results, Obs: o,
	}
	if cfgMut != nil {
		cfgMut(&cfg)
	}
	svc := core.New(cfg)
	fs := store.NewMemFS("local", nil)
	var siteStore store.Store = fs
	if wrapStore != nil {
		siteStore = wrapStore(fs)
	}
	fabric.AddEndpoint("local", siteStore)
	ep := faas.NewEndpoint("ep-local", 2, clk)
	fsvc.RegisterEndpoint(ep)
	ctx, cancel := context.WithCancel(context.Background())
	if err := ep.Start(ctx); err != nil {
		t.Fatal(err)
	}
	svc.AddSite(&core.Site{Name: "local", Store: siteStore, TransferID: "local", Compute: ep})
	if err := svc.RegisterExtractors(); err != nil {
		t.Fatal(err)
	}
	pf := transfer.NewPrefetcher(fabric, prefetch, prefetchDone, clk)
	go pf.Run(ctx, 1)
	dest := store.NewMemFS("dest", nil)
	vs := validate.NewService(validate.Passthrough{}, results, dest)
	vs.Instrument(o)
	go vs.Run(ctx)

	// Seed a couple of files.
	_ = fs.Write("/data/a.txt", []byte("perovskite cells and absorber layers"))
	_ = fs.Write("/data/b.csv", []byte("x,y\n1,2\n3,4\n"))

	var issuer *auth.Issuer
	if withAuth {
		issuer = auth.NewIssuer([]byte("api-key"), clk)
	}
	srv := api.NewServer(svc, reg, lib, issuer)
	srv.SetObserver(o)
	srv.SetBaseContext(ctx)
	ts := httptest.NewServer(srv.Handler())
	token := ""
	if withAuth {
		token = issuer.Issue("tester",
			[]string{auth.ScopeCrawl, auth.ScopeExtract, auth.ScopeValidate}, time.Hour)
	}
	client := sdk.New(ts.URL, token)
	deps := &testDeps{Server: srv, Store: fs, Dest: dest, Results: results, Svc: svc, Obs: o}
	return client, issuer, deps, func() { ts.Close(); cancel() }
}

func TestSubmitAndPollJob(t *testing.T) {
	client, _, done := newTestServer(t, false)
	defer done()

	jobID, err := client.Submit(api.JobRequest{Repos: []api.RepoRequest{{
		Site: "local", Roots: []string{"/data"}, Grouper: "single",
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if jobID == "" {
		t.Fatal("empty job id")
	}
	st, err := client.WaitJob(jobID, 5*time.Millisecond, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.Err != "" {
		t.Fatalf("job error: %s", st.Err)
	}
	if st.Stats == nil || st.Stats.FamiliesDone == 0 {
		t.Fatalf("stats = %+v", st.Stats)
	}
	if crawled, err := client.GetCrawlStatus(jobID); err != nil || crawled == 0 {
		t.Fatalf("crawl status = %d, %v", crawled, err)
	}
	if doneCount, err := client.GetExtractStatus(jobID); err != nil || doneCount == 0 {
		t.Fatalf("extract status = %d, %v", doneCount, err)
	}
}

func TestSitesAndExtractorsEndpoints(t *testing.T) {
	client, _, done := newTestServer(t, false)
	defer done()
	sites, err := client.Sites()
	if err != nil || len(sites) != 1 || sites[0] != "local" {
		t.Fatalf("sites = %v, %v", sites, err)
	}
	exts, err := client.Extractors()
	if err != nil || len(exts) != 13 {
		t.Fatalf("extractors = %v, %v", exts, err)
	}
}

func TestSubmitValidation(t *testing.T) {
	client, _, done := newTestServer(t, false)
	defer done()
	if _, err := client.Submit(api.JobRequest{}); err == nil {
		t.Fatal("empty job accepted")
	}
	if _, err := client.Submit(api.JobRequest{Repos: []api.RepoRequest{{Site: "nope"}}}); err == nil ||
		!strings.Contains(err.Error(), "unknown site") {
		t.Fatalf("err = %v", err)
	}
	if _, err := client.Submit(api.JobRequest{Repos: []api.RepoRequest{{Site: "local", Grouper: "bogus"}}}); err == nil ||
		!strings.Contains(err.Error(), "unknown grouper") {
		t.Fatalf("err = %v", err)
	}
}

func TestJobStatusNotFound(t *testing.T) {
	client, _, done := newTestServer(t, false)
	defer done()
	if _, err := client.JobStatus("job-999"); err == nil {
		t.Fatal("missing job returned status")
	}
}

func TestAuthRequired(t *testing.T) {
	client, issuer, done := newTestServer(t, true)
	defer done()
	// Valid token works.
	if _, err := client.Sites(); err != nil {
		t.Fatal(err)
	}
	// Missing token is rejected.
	noAuth := sdk.New(client.BaseURL, "")
	if _, err := noAuth.Sites(); err == nil {
		t.Fatal("unauthenticated request accepted")
	}
	// Wrong scope is rejected: sites needs the crawl scope, which an
	// extract-only token lacks.
	weak := sdk.New(client.BaseURL, issuer.Issue("u", []string{auth.ScopeExtract}, time.Hour))
	if _, err := weak.Sites(); err == nil {
		t.Fatal("wrong-scope request accepted")
	}
	// And the extract-only token cannot reach the validate-scoped
	// search route either.
	if _, err := weak.Search("x"); err == nil {
		t.Fatal("wrong-scope search accepted")
	}
}

func TestGrouperNames(t *testing.T) {
	client, _, done := newTestServer(t, false)
	defer done()
	for _, g := range []string{"single", "extension", "directory", "matio", ""} {
		jobID, err := client.Submit(api.JobRequest{Repos: []api.RepoRequest{{
			Site: "local", Roots: []string{"/data"}, Grouper: g,
		}}})
		if err != nil {
			t.Fatalf("grouper %q: %v", g, err)
		}
		if _, err := client.WaitJob(jobID, 5*time.Millisecond, 10*time.Second); err != nil {
			t.Fatalf("grouper %q: %v", g, err)
		}
	}
}

func TestSearchEndpoints(t *testing.T) {
	// Stand up a server, run a job, refresh the index, and search it.
	clk := clock.NewReal()
	fsvc := faas.NewService(clk, faas.Costs{})
	fabric := transfer.NewFabric(clk)
	reg := registry.New(clk, 0)
	lib := extractors.DefaultLibrary()
	_, prefetch, prefetchDone, results := core.NewQueues(clk)
	svc := core.New(core.Config{
		Clock: clk, FaaS: fsvc, Fabric: fabric, Registry: reg, Library: lib,
		PrefetchQueue: prefetch,
		PrefetchDone:  prefetchDone, ResultQueue: results,
	})
	fs := store.NewMemFS("local", nil)
	fabric.AddEndpoint("local", fs)
	ep := faas.NewEndpoint("ep-local", 2, clk)
	fsvc.RegisterEndpoint(ep)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := ep.Start(ctx); err != nil {
		t.Fatal(err)
	}
	svc.AddSite(&core.Site{Name: "local", Store: fs, TransferID: "local", Compute: ep})
	if err := svc.RegisterExtractors(); err != nil {
		t.Fatal(err)
	}
	dest := store.NewMemFS("dest", nil)
	vs := validate.NewService(validate.Passthrough{}, results, dest)
	_ = fs.Write("/data/doc.txt", []byte("perovskite absorber research notes"))

	srv := api.NewServer(svc, reg, lib, nil)
	ix := index.New()
	srv.EnableSearch(ix, dest, "/metadata")
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := sdk.New(ts.URL, "")

	jobID, err := client.Submit(api.JobRequest{Repos: []api.RepoRequest{{
		Site: "local", Roots: []string{"/data"}, Grouper: "single",
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.WaitJob(jobID, 5*time.Millisecond, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	vs.Drain()

	ref, err := client.RefreshIndex()
	if err != nil {
		t.Fatal(err)
	}
	if ref.Ingested == 0 || ref.Docs == 0 || ref.Terms == 0 {
		t.Fatalf("refresh = %+v", ref)
	}
	hits, err := client.Search("perovskite")
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 {
		t.Fatalf("hits = %v", hits)
	}
	if _, err := client.Search(""); err == nil {
		t.Fatal("empty query accepted")
	}
}

func TestSearchNotEnabled(t *testing.T) {
	client, _, done := newTestServer(t, false)
	defer done()
	if _, err := client.Search("anything"); err == nil {
		t.Fatal("search without index should error")
	}
	if _, err := client.RefreshIndex(); err == nil {
		t.Fatal("refresh without index should error")
	}
}

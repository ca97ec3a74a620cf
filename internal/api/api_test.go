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
	"xtract/internal/deploy"
	"xtract/internal/extractors"
	"xtract/internal/family"
	"xtract/internal/index"
	"xtract/internal/sdk"
	"xtract/internal/store"
	"xtract/internal/tenant"
)

// testDeps exposes the pieces of a test deployment individual tests poke.
type testDeps struct {
	*deploy.Deployment
	Server *api.Server
	Store  *store.MemFS // the site's data layer, beneath any wrapping
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

// newTestServerDepsCfg additionally applies a deploy.Options hook before the
// deployment is built (e.g. to attach a result cache).
func newTestServerDepsCfg(t *testing.T, withAuth bool, wrapStore func(store.Store) store.Store, optsMut func(*deploy.Options)) (*sdk.XtractClient, *auth.Issuer, *testDeps, func()) {
	t.Helper()
	clk := clock.NewReal()
	fs := store.NewMemFS("local", nil)
	var siteStore store.Store = fs
	if wrapStore != nil {
		siteStore = wrapStore(fs)
	}
	// Seed a couple of files.
	_ = fs.Write("/data/a.txt", []byte("perovskite cells and absorber layers"))
	_ = fs.Write("/data/b.csv", []byte("x,y\n1,2\n3,4\n"))

	var opts deploy.Options
	if optsMut != nil {
		optsMut(&opts)
	}
	d, err := deploy.New(context.Background(), clk, []deploy.SiteSpec{{Name: "local", Store: siteStore, Workers: 2}}, opts)
	if err != nil {
		t.Fatal(err)
	}
	var issuer *auth.Issuer
	if withAuth {
		issuer = auth.NewIssuer([]byte("api-key"), clk)
	}
	srv := api.NewServer(d.Service, d.Registry, d.Library, issuer)
	srv.SetObserver(d.Obs)
	srv.SetBaseContext(d.Ctx)
	ts := httptest.NewServer(srv.Handler())
	token := ""
	if withAuth {
		token = issuer.Issue("tester",
			[]string{auth.ScopeCrawl, auth.ScopeExtract, auth.ScopeValidate}, time.Hour)
	}
	client := sdk.New(ts.URL, token)
	return client, issuer, &testDeps{Deployment: d, Server: srv, Store: fs}, func() { ts.Close(); d.Close() }
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
	// Run a job, refresh the index, and search it.
	client, _, deps, done := newTestServerDeps(t, false, nil)
	defer done()
	deps.Server.EnableSearch(index.New(), deps.Dest, "/metadata")

	jobID, err := client.Submit(api.JobRequest{Repos: []api.RepoRequest{{
		Site: "local", Roots: []string{"/data"}, Grouper: "single",
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.WaitJob(jobID, 5*time.Millisecond, 10*time.Second); err != nil {
		t.Fatal(err)
	}

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

// holdingExtractor runs its inner extractor, first waiting for release on
// any group holding the file held.
type holdingExtractor struct {
	extractors.Extractor
	held    string
	release <-chan struct{}
}

func (h holdingExtractor) Extract(g *family.Group, files map[string][]byte) (map[string]interface{}, error) {
	for _, f := range g.Files {
		if f == h.held {
			<-h.release
		}
	}
	return h.Extractor.Extract(g, files)
}

// A running job shows its progress: held mid-run behind an extractor that
// waits, it answers with the groups its crawl formed and the steps it has
// done before it is complete.
func TestRunningJobShowsProgress(t *testing.T) {
	release := make(chan struct{})
	base := extractors.DefaultLibrary()
	var held []extractors.Extractor
	for _, name := range base.Names() {
		e, _ := base.Get(name)
		held = append(held, holdingExtractor{Extractor: e, held: "/data/b.csv", release: release})
	}
	client, _, _, done := newTestServerDepsCfg(t, false, nil, func(opts *deploy.Options) {
		opts.Library = extractors.NewLibrary(held...)
		opts.XtractBatchSize = 1 // a.txt's step is not in b.csv's task
	})
	defer done()
	id, err := client.Submit(api.JobRequest{Repos: []api.RepoRequest{{Site: "local", Roots: []string{"/data"}, Grouper: "single"}}})
	if err != nil {
		close(release)
		t.Fatal(err)
	}
	var st api.JobStatus
	for deadline := time.Now().Add(10 * time.Second); st.Done == 0 && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if st, err = client.JobStatus(id); err != nil {
			close(release)
			t.Fatal(err)
		}
	}
	close(release)
	if st.Crawled != 2 || st.Done == 0 || st.Complete || st.Record.GroupsDone != st.Done {
		t.Fatalf("held job = %+v; want two groups crawled, steps done, not complete", st)
	}
	if st, err = client.WaitJob(id, time.Millisecond, 10*time.Second); err != nil || st.State != "COMPLETE" || st.Done <= 1 {
		t.Fatalf("released job = %+v, %v", st, err)
	}
}

// A job that ends by error answers with the work it did: cancelled after
// a step completed, its stats count the steps its record and its tenant's
// bill count.
func TestCancelledJobReportsItsWork(t *testing.T) {
	release := make(chan struct{})
	base := extractors.DefaultLibrary()
	var held []extractors.Extractor
	for _, name := range base.Names() {
		e, _ := base.Get(name)
		held = append(held, holdingExtractor{Extractor: e, held: "/data/b.csv", release: release})
	}
	ctrl := tenant.NewController(tenant.Config{})
	client, _, deps, done := newTestServerDepsCfg(t, false, nil, func(opts *deploy.Options) {
		opts.Library = extractors.NewLibrary(held...)
		opts.XtractBatchSize = 1 // a.txt's step is not in b.csv's task
		opts.Tenants = ctrl
	})
	defer done()
	defer close(release)
	deps.Server.SetTenants(ctrl)
	id, err := client.Submit(api.JobRequest{Repos: []api.RepoRequest{{Site: "local", Roots: []string{"/data"}, Grouper: "single"}}})
	if err != nil {
		t.Fatal(err)
	}
	var st api.JobStatus
	for deadline := time.Now().Add(10 * time.Second); st.Done == 0 && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if st, err = client.JobStatus(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.CancelJob(id); err != nil {
		t.Fatal(err)
	}
	if st, err = client.WaitJob(id, time.Millisecond, 10*time.Second); err != nil || st.State != "CANCELLED" || st.Stats == nil {
		t.Fatalf("cancelled job = %+v, %v", st, err)
	}
	if s := st.Stats; s.StepsProcessed == 0 || s.StepsProcessed != st.Record.GroupsDone || s.Elapsed <= 0 {
		t.Fatalf("cancelled job's stats: %d steps in %s, its record %d groups done", s.StepsProcessed, s.Elapsed, st.Record.GroupsDone)
	}
	if u, _ := ctrl.UsageFor(tenant.Default); u.StepsProcessed != st.Stats.StepsProcessed {
		t.Fatalf("tenant billed %d steps, the job's stats say %d", u.StepsProcessed, st.Stats.StepsProcessed)
	}
}

package api_test

// tenant_test.go exercises the tenant-scoped API surface: cross-tenant
// isolation on every job route, quota refusals with Retry-After,
// structured auth envelopes, dev-mode token minting with SDK re-mint,
// and the two-tenant flood with isolated accounting checked against
// both the usage endpoint and the /metrics exposition.

import (
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"xtract/internal/api"
	"xtract/internal/auth"
	"xtract/internal/clock"
	"xtract/internal/core"
	"xtract/internal/deploy"
	"xtract/internal/sdk"
	"xtract/internal/store"
	"xtract/internal/tenant"
)

var allScopes = []string{auth.ScopeCrawl, auth.ScopeExtract, auth.ScopeValidate}

// newTenantServer stands up an authed server with a tenancy controller
// configured from lim/slots, returning the base URL for per-tenant
// clients.
func newTenantServer(t *testing.T, lim tenant.Limits, slots int) (string, *auth.Issuer, *testDeps, func()) {
	t.Helper()
	ctrl := tenant.NewController(tenant.Config{Defaults: lim, TaskSlots: slots})
	client, issuer, deps, done := newTestServerDepsCfg(t, true, nil,
		func(opts *deploy.Options) { opts.Tenants = ctrl })
	deps.Server.SetTenants(ctrl)
	return client.BaseURL, issuer, deps, done
}

// tenantClient builds an SDK client authenticated as identity (which is
// also its tenant, after normalization).
func tenantClient(base string, issuer *auth.Issuer, identity string) *sdk.XtractClient {
	return sdk.New(base, issuer.Issue(identity, allScopes, time.Hour))
}

func submitAndWait(t *testing.T, c *sdk.XtractClient, roots ...string) string {
	t.Helper()
	repos := make([]api.RepoRequest, 0, len(roots))
	for _, r := range roots {
		repos = append(repos, api.RepoRequest{Site: "local", Roots: []string{r}, Grouper: "single"})
	}
	id, err := c.Submit(api.JobRequest{Repos: repos})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.WaitJob(id, 5*time.Millisecond, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.Err != "" {
		t.Fatalf("job error: %s", st.Err)
	}
	return id
}

// asAPIError unwraps err into the SDK's structured error or fails.
func asAPIError(t *testing.T, err error) *sdk.APIError {
	t.Helper()
	var ae *sdk.APIError
	if !errors.As(err, &ae) {
		t.Fatalf("error %v (%T) is not an *sdk.APIError", err, err)
	}
	return ae
}

// TestTenantIsolation pins the ownership boundary: every job route
// answers the structured 403 for another tenant's job, listings are
// tenant-filtered, and usage is readable only by its own tenant.
func TestTenantIsolation(t *testing.T) {
	base, issuer, _, done := newTenantServer(t, tenant.Limits{}, 0)
	defer done()
	alice := tenantClient(base, issuer, "Alice") // normalizes to "alice"
	bob := tenantClient(base, issuer, "bob")

	jobID := submitAndWait(t, alice, "/data")

	// Status, events, and cancel are all owner-only.
	if _, err := bob.JobStatus(jobID); !asAPIError(t, err).IsForbidden() {
		t.Fatalf("cross-tenant status: %v", err)
	}
	if _, _, err := bob.JobEvents(jobID); !asAPIError(t, err).IsForbidden() {
		t.Fatalf("cross-tenant events: %v", err)
	}
	if err := bob.CancelJob(jobID); !asAPIError(t, err).IsForbidden() {
		t.Fatalf("cross-tenant cancel: %v", err)
	}
	if ae := asAPIError(t, bob.CancelJob(jobID)); ae.Status != 403 {
		t.Fatalf("cross-tenant cancel status = %d, want 403", ae.Status)
	}
	// The owner still sees everything.
	if st, err := alice.JobStatus(jobID); err != nil || st.Tenant != "alice" {
		t.Fatalf("owner status = %+v, %v", st, err)
	}

	// Listings are tenant-scoped, including the Total count.
	al, err := alice.ListJobs("", 0, 0)
	if err != nil || al.Total != 1 || len(al.Jobs) != 1 || al.Jobs[0].Tenant != "alice" {
		t.Fatalf("alice list = %+v, %v", al, err)
	}
	bl, err := bob.ListJobs("", 0, 0)
	if err != nil || bl.Total != 0 || len(bl.Jobs) != 0 {
		t.Fatalf("bob list = %+v, %v", bl, err)
	}

	// Usage: own tenant readable, another's forbidden.
	if _, err := bob.TenantUsage("alice"); !asAPIError(t, err).IsForbidden() {
		t.Fatalf("cross-tenant usage: %v", err)
	}
	au, err := alice.TenantUsage("alice")
	if err != nil || !au.Enabled || au.Usage.JobsCompleted != 1 {
		t.Fatalf("alice usage = %+v, %v", au, err)
	}

	// Dev minting is off by default.
	if _, err := sdk.New(base, "").MintToken("mallory", nil, 0); err == nil {
		t.Fatal("mint endpoint open without -dev-tokens")
	}
}

// TestTenantQuotaRetryAfter pins the 429 envelope: with a 1-token
// bucket and a slow refill, the second submission is refused with code
// tenant_quota, a Retry-After hint, and a throttle count on the bill —
// while a different tenant's bucket is untouched.
func TestTenantQuotaRetryAfter(t *testing.T) {
	base, issuer, _, done := newTenantServer(t,
		tenant.Limits{SubmitRate: 0.01, SubmitBurst: 1}, 0)
	defer done()
	alice := tenantClient(base, issuer, "alice")
	bob := tenantClient(base, issuer, "bob")

	submitAndWait(t, alice, "/data")
	_, err := alice.Submit(api.JobRequest{Repos: []api.RepoRequest{{
		Site: "local", Roots: []string{"/data"}, Grouper: "single",
	}}})
	ae := asAPIError(t, err)
	if !ae.IsQuota() || ae.Status != 429 {
		t.Fatalf("second submit = %v (status %d)", err, ae.Status)
	}
	if ae.RetryAfter < time.Second {
		t.Fatalf("Retry-After = %v, want >= 1s", ae.RetryAfter)
	}
	au, err := alice.TenantUsage("alice")
	if err != nil || au.Usage.Throttled == 0 {
		t.Fatalf("throttle not billed: %+v, %v", au, err)
	}
	// Alice's exhausted bucket must not starve bob.
	submitAndWait(t, bob, "/data")
}

// TestShedSubmissionAnswers503 pins the 503 envelope: a service past
// its task-slot watermark refuses a submission with code overloaded and
// the policy's Retry-After, before admission — the tenant's one rate
// token is still there once the pressure is gone.
func TestShedSubmissionAnswers503(t *testing.T) {
	ctrl := tenant.NewController(tenant.Config{TaskSlots: 2, Defaults: tenant.Limits{SubmitRate: 0.01, SubmitBurst: 1}})
	client, issuer, deps, done := newTestServerDepsCfg(t, true, nil, func(opts *deploy.Options) {
		opts.Tenants = ctrl
		opts.Shed = core.ShedPolicy{SlotHighWatermark: 0.5, RetryAfter: 3 * time.Second}
	})
	defer done()
	deps.Server.SetTenants(ctrl)
	alice := tenantClient(client.BaseURL, issuer, "alice")

	if _, err := ctrl.AcquireTask(context.Background(), "bob"); err != nil {
		t.Fatal(err)
	}
	_, err := alice.Submit(api.JobRequest{Repos: []api.RepoRequest{{Site: "local", Roots: []string{"/data"}, Grouper: "single"}}})
	ae := asAPIError(t, err)
	if !ae.IsOverloaded() || ae.Status != 503 || ae.RetryAfter != 3*time.Second {
		t.Fatalf("submission past the watermark = %+v; want 503 overloaded, Retry-After 3s", ae)
	}
	ctrl.ReleaseTasks("bob", 1)
	submitAndWait(t, alice, "/data")
}

// TestAuthErrorEnvelopes pins the machine-readable auth failures: an
// expired token answers 401 auth_expired, a valid token without the
// route's scope answers 403 auth_scope.
func TestAuthErrorEnvelopes(t *testing.T) {
	base, issuer, _, done := newTenantServer(t, tenant.Limits{}, 0)
	defer done()

	expired := sdk.New(base, issuer.Issue("alice", allScopes, -time.Second))
	ae := asAPIError(t, errOf(expired.Sites()))
	if !ae.IsAuthExpired() || ae.Status != 401 {
		t.Fatalf("expired token = %+v", ae)
	}

	weak := sdk.New(base, issuer.Issue("alice", []string{auth.ScopeExtract}, time.Hour))
	ae = asAPIError(t, errOf(weak.Sites()))
	if !ae.IsScope() || ae.Status != 403 {
		t.Fatalf("scope miss = %+v", ae)
	}
}

// errOf drops a call's value, keeping the error (for one-line asserts).
func errOf[T any](_ T, err error) error { return err }

// TestDevTokenMintAndRemint exercises the dev-mode mint endpoint and
// the SDK's re-mint-and-retry on auth_expired: a token source whose
// first token is already expired must be consulted exactly twice for
// one successful request.
func TestDevTokenMintAndRemint(t *testing.T) {
	base, issuer, deps, done := newTenantServer(t, tenant.Limits{}, 0)
	defer done()
	deps.Server.EnableDevTokens()

	minted, err := sdk.New(base, "").MintToken("Carol", nil, time.Minute)
	if err != nil || minted.Token == "" || minted.Tenant != "carol" {
		t.Fatalf("mint = %+v, %v", minted, err)
	}
	if _, err := sdk.New(base, minted.Token).Sites(); err != nil {
		t.Fatalf("minted token rejected: %v", err)
	}

	// A client bootstrapped purely from the mint endpoint works too.
	src := sdk.DevTokenSource(base, "carol", allScopes, time.Minute)
	if _, err := sdk.New(base, "", sdk.WithTokenSource(src)).Sites(); err != nil {
		t.Fatalf("dev token source: %v", err)
	}

	// Re-mint path: first token expired, the retry's token valid.
	calls := 0
	counting := sdk.TokenSource(func() (string, error) {
		calls++
		if calls == 1 {
			return issuer.Issue("carol", allScopes, -time.Second), nil
		}
		return issuer.Issue("carol", allScopes, time.Hour), nil
	})
	c := sdk.New(base, "", sdk.WithTokenSource(counting))
	if _, err := c.Sites(); err != nil {
		t.Fatalf("re-mint retry failed: %v", err)
	}
	if calls != 2 {
		t.Fatalf("token source consulted %d times, want 2", calls)
	}
	// The re-minted token is cached: no further mints on the next call.
	if _, err := c.Sites(); err != nil || calls != 2 {
		t.Fatalf("cached token not reused: calls=%d, %v", calls, err)
	}
}

// metricValue extracts one sample from a Prometheus text exposition.
func metricValue(t *testing.T, text, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, series+" ") {
			v, err := strconv.ParseFloat(strings.TrimPrefix(line, series+" "), 64)
			if err != nil {
				t.Fatalf("bad sample %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("series %s absent from exposition", series)
	return 0
}

// TestTwoTenantFloodAccounting is the acceptance scenario: tenant A
// floods the service with 10x tenant B's work under a small shared
// task-slot pool; B's job must still complete, and each tenant's bill —
// on the usage endpoint and mirrored in xtract_tenant_* metrics — must
// account only its own work.
func TestTwoTenantFloodAccounting(t *testing.T) {
	base, issuer, deps, done := newTenantServer(t, tenant.Limits{}, 2)
	defer done()
	alice := tenantClient(base, issuer, "alice")
	bob := tenantClient(base, issuer, "bob")

	const floodFiles, smallFiles = 30, 3
	for i := 0; i < floodFiles; i++ {
		if err := deps.Store.Write(fmt.Sprintf("/flood/f%02d.txt", i),
			[]byte(fmt.Sprintf("flood file %d payload", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < smallFiles; i++ {
		if err := deps.Store.Write(fmt.Sprintf("/small/s%d.txt", i),
			[]byte(fmt.Sprintf("small file %d payload", i))); err != nil {
			t.Fatal(err)
		}
	}

	// A's flood goes in first and holds the backlog; B follows.
	aliceJob, err := alice.Submit(api.JobRequest{Repos: []api.RepoRequest{{
		Site: "local", Roots: []string{"/flood"}, Grouper: "single",
	}}})
	if err != nil {
		t.Fatal(err)
	}
	bobJob, err := bob.Submit(api.JobRequest{Repos: []api.RepoRequest{{
		Site: "local", Roots: []string{"/small"}, Grouper: "single",
	}}})
	if err != nil {
		t.Fatal(err)
	}
	// B makes progress to completion despite A's backlog on the shared
	// two-slot pool — the fair-share guarantee, observed end to end.
	if st, err := bob.WaitJob(bobJob, 2*time.Millisecond, 30*time.Second); err != nil || st.Err != "" {
		t.Fatalf("flooded-out tenant never finished: %+v, %v", st, err)
	}
	if st, err := alice.WaitJob(aliceJob, 2*time.Millisecond, 60*time.Second); err != nil || st.Err != "" {
		t.Fatalf("flood job: %+v, %v", st, err)
	}

	au, err := alice.TenantUsage("alice")
	if err != nil {
		t.Fatal(err)
	}
	bu, err := bob.TenantUsage("bob")
	if err != nil {
		t.Fatal(err)
	}
	for name, u := range map[string]tenant.Usage{"alice": au.Usage, "bob": bu.Usage} {
		if u.JobsStarted != 1 || u.JobsCompleted != 1 || u.ActiveJobs != 0 || u.InFlightTasks != 0 {
			t.Fatalf("%s usage not settled: %+v", name, u)
		}
	}
	// Each bill covers exactly its own corpus: steps track files 1:1
	// here (single-file groups, one applicable extractor each).
	if au.Usage.StepsProcessed < floodFiles || bu.Usage.StepsProcessed < smallFiles ||
		bu.Usage.StepsProcessed >= au.Usage.StepsProcessed {
		t.Fatalf("accounting crossed tenants: alice %d steps, bob %d steps",
			au.Usage.StepsProcessed, bu.Usage.StepsProcessed)
	}
	if au.Usage.TasksDispatched < floodFiles || bu.Usage.TasksDispatched < smallFiles {
		t.Fatalf("tasks under-billed: alice %d, bob %d",
			au.Usage.TasksDispatched, bu.Usage.TasksDispatched)
	}

	// The /metrics exposition must agree with the usage endpoint.
	text, err := alice.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for name, u := range map[string]tenant.Usage{"alice": au.Usage, "bob": bu.Usage} {
		if v := metricValue(t, text,
			`xtract_tenant_jobs_total{tenant="`+name+`",state="complete"}`); v != 1 {
			t.Fatalf("%s completed metric = %v, want 1", name, v)
		}
		if v := metricValue(t, text,
			`xtract_tenant_tasks_total{tenant="`+name+`"}`); int64(v) != u.TasksDispatched {
			t.Fatalf("%s tasks metric = %v, usage says %d", name, v, u.TasksDispatched)
		}
		if v := metricValue(t, text,
			`xtract_tenant_jobs_active{tenant="`+name+`"}`); v != 0 {
			t.Fatalf("%s active gauge = %v, want 0", name, v)
		}
	}
}

// TestMemoisedTokenExpiresAtTheAPI: the issuer remembers a token it has
// verified, and still checks its expiry on every request. Once the clock
// passes it, a client holding the token gets 401 auth_expired, and a
// client with a token source re-mints and retries.
func TestMemoisedTokenExpiresAtTheAPI(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	d, err := deploy.New(context.Background(), clock.NewReal(),
		[]deploy.SiteSpec{{Name: "local", Store: store.NewMemFS("local", nil), Workers: 1}}, deploy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	issuer := auth.NewIssuer([]byte("api-key"), clk)
	ts := httptest.NewServer(api.NewServer(d.Service, d.Registry, d.Library, issuer).Handler())
	defer ts.Close()

	minted := 0
	c := sdk.New(ts.URL, "", sdk.WithTokenSource(func() (string, error) {
		minted++
		return issuer.Issue("alice", allScopes, time.Minute), nil
	}))
	for i := 0; i < 2; i++ { // the second request is a memo hit
		if _, err := c.Sites(); err != nil || minted != 1 {
			t.Fatalf("request %d with a fresh token: minted %d, %v", i, minted, err)
		}
	}
	held := sdk.New(ts.URL, c.Token)
	clk.Advance(time.Minute + time.Second)
	if ae := asAPIError(t, errOf(held.Sites())); !ae.IsAuthExpired() || ae.Status != 401 {
		t.Fatalf("a memoised token past its expiry = %+v, want 401 auth_expired", ae)
	}
	if _, err := c.Sites(); err != nil || minted != 2 {
		t.Fatalf("after expiry: minted %d, %v; want one re-mint and a retry that succeeds", minted, err)
	}
}

package api_test

// cluster_test.go exercises the cluster-facing API surface over two
// real HTTP nodes sharing one Coordinator: placement-aware 307
// redirects on submit (the SDK must follow them with method, body, and
// bearer token intact), job routes redirecting to the owning node, the
// membership endpoint, and — the accounting acceptance — a two-tenant
// flood split across two nodes whose global usage answer equals the sum
// of the per-node xtract_tenant_* metric expositions.

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"xtract/internal/api"
	"xtract/internal/auth"
	"xtract/internal/clock"
	"xtract/internal/cluster"
	"xtract/internal/core"
	"xtract/internal/extractors"
	"xtract/internal/faas"
	"xtract/internal/obs"
	"xtract/internal/registry"
	"xtract/internal/sdk"
	"xtract/internal/store"
	"xtract/internal/tenant"
	"xtract/internal/transfer"
	"xtract/internal/validate"

	"context"
	"net/http/httptest"
)

// clusterAPINode is one HTTP node of a two-node test cluster.
type clusterAPINode struct {
	id     string
	base   string
	server *api.Server
	ctrl   *tenant.Controller
	obs    *obs.Observer
}

// newClusterAPIPair boots two full service stacks as cluster nodes "n1"
// and "n2" over one Coordinator and one shared site store, each behind
// its own real HTTP listener, sharing one token issuer. The lease TTL
// is effectively infinite: these tests exercise routing and accounting,
// not expiry (the cluster harness owns that).
func newClusterAPIPair(t *testing.T) (*cluster.Coordinator, *store.MemFS, *auth.Issuer, []*clusterAPINode, func()) {
	t.Helper()
	clk := clock.NewReal()
	coord := cluster.NewCoordinator(cluster.Options{Clock: clk, LeaseTTL: time.Hour})
	siteFS := store.NewMemFS("local", nil)
	issuer := auth.NewIssuer([]byte("api-key"), clk)
	ctx, cancel := context.WithCancel(context.Background())
	var nodes []*clusterAPINode
	var closers []func()

	for _, id := range []string{"n1", "n2"} {
		o := obs.New(clk)
		ctrl := tenant.NewController(tenant.Config{TaskSlots: 4})
		ctrl.Instrument(o.Reg())
		fsvc := faas.NewService(clk, faas.Costs{})
		fabric := transfer.NewFabric(clk)
		reg := registry.New(clk, 0)
		reg.SetIDPrefix(id)
		lib := extractors.DefaultLibrary()
		// The address is only known once the listener exists; join with a
		// placeholder and refresh below (Join upserts).
		node := cluster.NewNode(coord, id, "")
		_, prefetch, prefetchDone, results := core.NewQueues(clk)
		svc := core.New(core.Config{
			Clock: clk, FaaS: fsvc, Fabric: fabric, Registry: reg, Library: lib,
			PrefetchQueue: prefetch,
			PrefetchDone:  prefetchDone, ResultQueue: results, Obs: o,
			Tenants: ctrl, Cluster: node,
		})
		fabric.AddEndpoint("local", siteFS)
		ep := faas.NewEndpoint("ep-local-"+id, 2, clk)
		fsvc.RegisterEndpoint(ep)
		if err := ep.Start(ctx); err != nil {
			t.Fatal(err)
		}
		svc.AddSite(&core.Site{Name: "local", Store: siteFS, TransferID: "local", Compute: ep})
		if err := svc.RegisterExtractors(); err != nil {
			t.Fatal(err)
		}
		pf := transfer.NewPrefetcher(fabric, prefetch, prefetchDone, clk)
		go pf.Run(ctx, 1)
		vs := validate.NewService(validate.Passthrough{}, results, store.NewMemFS("dest-"+id, nil))
		go vs.Run(ctx)

		srv := api.NewServer(svc, reg, lib, issuer)
		srv.SetObserver(o)
		srv.SetBaseContext(ctx)
		srv.SetTenants(ctrl)
		srv.SetCluster(node)
		ts := httptest.NewServer(srv.Handler())
		closers = append(closers, ts.Close)
		coord.Join(id, ts.URL)
		coord.RegisterUsage(id, ctrl.UsageFor)
		ctrl.SetPeerActive(func(ten string) int { return coord.PeerActive(id, ten) })
		nodes = append(nodes, &clusterAPINode{id: id, base: ts.URL, server: srv, ctrl: ctrl, obs: o})
	}
	done := func() {
		for _, c := range closers {
			c()
		}
		cancel()
	}
	return coord, siteFS, issuer, nodes, done
}

// placementKeyFor mirrors the server's placement key: tenant plus every
// repo's site and roots.
func placementKeyFor(ten string, req api.JobRequest) string {
	var b strings.Builder
	b.WriteString(ten)
	for _, repo := range req.Repos {
		b.WriteByte('|')
		b.WriteString(repo.Site)
		for _, root := range repo.Roots {
			b.WriteByte('/')
			b.WriteString(root)
		}
	}
	return b.String()
}

// tenantPlacedOn scans candidate tenant names for one whose job request
// the ring places on want — making cross-node scenarios deterministic
// without hardcoding hash outcomes.
func tenantPlacedOn(t *testing.T, coord *cluster.Coordinator, want string, req api.JobRequest) string {
	t.Helper()
	for i := 0; i < 64; i++ {
		ten := fmt.Sprintf("tenant%02d", i)
		if owner, _, ok := coord.Owner(placementKeyFor(ten, req)); ok && owner == want {
			return ten
		}
	}
	t.Fatalf("no candidate tenant places on %s", want)
	return ""
}

// metricValueOr0 reads one series from a /metrics exposition, 0 when the
// series is absent (the node never saw that tenant).
func metricValueOr0(t *testing.T, text, series string) float64 {
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
	return 0
}

func TestClusterEndpointAndSubmitRedirect(t *testing.T) {
	coord, siteFS, issuer, nodes, done := newClusterAPIPair(t)
	defer done()
	if err := siteFS.Write("/data/a.txt", []byte("perovskite absorber layers")); err != nil {
		t.Fatal(err)
	}

	// Membership through either node, each reporting itself as Self.
	for _, n := range nodes {
		c := tenantClient(n.base, issuer, "viewer")
		info, err := c.Cluster()
		if err != nil {
			t.Fatal(err)
		}
		if !info.Enabled || info.Self != n.id || len(info.Members) != 2 {
			t.Fatalf("cluster via %s = %+v", n.id, info)
		}
		for _, m := range info.Members {
			if !m.Alive || m.Addr == "" {
				t.Fatalf("member %+v not alive with an address", m)
			}
		}
	}

	// A tenant whose job the ring places on n1, submitted through n2: the
	// server answers 307 and the SDK replays the POST — body and bearer
	// token intact — against n1. The minted ID carries the executing node.
	req := api.JobRequest{Repos: []api.RepoRequest{{
		Site: "local", Roots: []string{"/data"}, Grouper: "single",
	}}}
	ten := tenantPlacedOn(t, coord, "n1", req)
	viaN2 := tenantClient(nodes[1].base, issuer, ten)
	jobID, err := viaN2.Submit(req)
	if err != nil {
		t.Fatalf("cross-node submit: %v", err)
	}
	if registry.MintingNode(jobID) != "n1" {
		t.Fatalf("job %s did not land on the placement owner n1", jobID)
	}

	// Polling through the non-owner redirects to the owner — while the
	// job's lease is live, and equally after release via the minted-node
	// fallback — so the client's node choice never matters.
	st, err := viaN2.WaitJob(jobID, 2*time.Millisecond, 30*time.Second)
	if err != nil || st.Err != "" {
		t.Fatalf("cross-node wait: %+v, %v", st, err)
	}
	if st.Stats == nil || st.Stats.FamiliesDone == 0 {
		t.Fatalf("stats = %+v", st.Stats)
	}

	// Cross-tenant isolation survives the redirect hop: another tenant
	// probing the job through the non-owner must still be refused.
	if _, err := tenantClient(nodes[1].base, issuer, "intruder").JobStatus(jobID); err == nil {
		t.Fatal("foreign tenant read a redirected job")
	}
}

// TestClusterCrossNodeTenantAccounting is the acceptance scenario for
// global accounting: two tenants run on two different nodes, and the
// usage endpoint — asked through either node — answers the global bill,
// equal to the sum of both nodes' xtract_tenant_* metric expositions.
func TestClusterCrossNodeTenantAccounting(t *testing.T) {
	coord, siteFS, issuer, nodes, done := newClusterAPIPair(t)
	defer done()

	const floodFiles, smallFiles = 12, 3
	for i := 0; i < floodFiles; i++ {
		if err := siteFS.Write(fmt.Sprintf("/flood/f%02d.txt", i),
			[]byte(fmt.Sprintf("flood file %d payload", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < smallFiles; i++ {
		if err := siteFS.Write(fmt.Sprintf("/small/s%d.txt", i),
			[]byte(fmt.Sprintf("small file %d payload", i))); err != nil {
			t.Fatal(err)
		}
	}
	floodReq := api.JobRequest{Repos: []api.RepoRequest{{
		Site: "local", Roots: []string{"/flood"}, Grouper: "single",
	}}}
	smallReq := api.JobRequest{Repos: []api.RepoRequest{{
		Site: "local", Roots: []string{"/small"}, Grouper: "single",
	}}}
	tenA := tenantPlacedOn(t, coord, "n1", floodReq)
	tenB := tenantPlacedOn(t, coord, "n2", smallReq)
	if tenA == tenB {
		t.Fatalf("tenant candidates collided: %s", tenA)
	}

	// Each tenant submits through the node that will NOT run its job, so
	// both placements cross the wire.
	alice := tenantClient(nodes[1].base, issuer, tenA)
	bob := tenantClient(nodes[0].base, issuer, tenB)
	aliceJob, err := alice.Submit(floodReq)
	if err != nil {
		t.Fatal(err)
	}
	bobJob, err := bob.Submit(smallReq)
	if err != nil {
		t.Fatal(err)
	}
	if registry.MintingNode(aliceJob) != "n1" || registry.MintingNode(bobJob) != "n2" {
		t.Fatalf("placement not split: %s on %s, %s on %s", aliceJob,
			registry.MintingNode(aliceJob), bobJob, registry.MintingNode(bobJob))
	}
	if st, err := alice.WaitJob(aliceJob, 2*time.Millisecond, 30*time.Second); err != nil || st.Err != "" {
		t.Fatalf("flood job: %+v, %v", st, err)
	}
	if st, err := bob.WaitJob(bobJob, 2*time.Millisecond, 30*time.Second); err != nil || st.Err != "" {
		t.Fatalf("small job: %+v, %v", st, err)
	}

	// Both nodes' metric expositions, once each.
	var texts []string
	for _, n := range nodes {
		text, err := tenantClient(n.base, issuer, "viewer").Metrics()
		if err != nil {
			t.Fatal(err)
		}
		texts = append(texts, text)
	}

	for _, tc := range []struct {
		ten   string
		c     *sdk.XtractClient
		files int
	}{{tenA, alice, floodFiles}, {tenB, bob, smallFiles}} {
		// The usage endpoint answers globally through any node.
		u, err := tc.c.TenantUsage(tc.ten)
		if err != nil {
			t.Fatal(err)
		}
		if !u.Global {
			t.Fatalf("%s usage response not marked global", tc.ten)
		}
		if u.Usage.JobsCompleted != 1 || u.Usage.ActiveJobs != 0 {
			t.Fatalf("%s usage not settled: %+v", tc.ten, u.Usage)
		}
		if u.Usage.StepsProcessed < int64(tc.files) {
			t.Fatalf("%s steps %d < corpus %d", tc.ten, u.Usage.StepsProcessed, tc.files)
		}
		// Global usage == sum of the per-node expositions: each counter
		// lives on exactly the node that ran the work, and the cluster
		// aggregate is their sum.
		var tasks, completed float64
		for _, text := range texts {
			tasks += metricValueOr0(t, text, `xtract_tenant_tasks_total{tenant="`+tc.ten+`"}`)
			completed += metricValueOr0(t, text, `xtract_tenant_jobs_total{tenant="`+tc.ten+`",state="complete"}`)
		}
		if int64(tasks) != u.Usage.TasksDispatched {
			t.Fatalf("%s: metrics sum %v tasks, usage says %d", tc.ten, tasks, u.Usage.TasksDispatched)
		}
		if completed != 1 {
			t.Fatalf("%s: metrics sum %v completed jobs, want 1", tc.ten, completed)
		}
	}
}

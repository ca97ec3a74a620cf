package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"time"

	"xtract/internal/api"
	"xtract/internal/auth"
	"xtract/internal/clock"
	"xtract/internal/deploy"
	"xtract/internal/extractors"
	"xtract/internal/faas"
	"xtract/internal/journal"
	"xtract/internal/sdk"
	"xtract/internal/store"
	"xtract/internal/tenant"
	"xtract/internal/transfer"
	"xtract/internal/validate"
)

var epoch = time.Now()

// sinceEpoch is the harness's monotonic time base, shared by spans and
// destination-write stamps.
func sinceEpoch() int64 { return int64(time.Since(epoch)) }

// siteSpec is one site of a workload's deployment.
type siteSpec struct {
	name    string
	store   store.Store
	workers int
}

// link is a transfer-fabric link between two sites.
type link struct {
	src, dst string
	link     transfer.Link
}

// job is one submission a client makes.
type job struct {
	req api.JobRequest
	// prefix is the destination path prefix this job's documents land
	// under; no other job in flight writes under it.
	prefix string
	// key names the input the job runs over: two jobs with the same key
	// must produce the same documents.
	key string
}

// plan is a workload made concrete for one seed and scale: the stores it
// generated and how to deploy and drive the system over them.
type plan struct {
	sites     []siteSpec
	links     []link
	library   *extractors.Library // nil: default library
	validator validate.Validator  // nil: passthrough
	cacheCap  int
	costs     faas.Costs
	taskSlots int

	clients int
	poll    time.Duration
	// next returns client c's i-th job.
	next func(c, i int) job
	// slotOf maps a source or destination path to the client whose job
	// touches it (always 0 with one client).
	slotOf func(path string) int
	// warmups is how many jobs each client runs during set-up.
	warmups int
	// warm says the measured jobs must be answered from the cache alone.
	warm bool
}

// env is the system under test plus the clients that drive it: the same
// wiring as `xtract serve` — deployment, API server with auth issuer,
// tenant controller, observer, journal — on a loopback listener.
type env struct {
	plan    *plan
	tr      *tracer
	dep     *deploy.Deployment
	jnl     *journal.Journal
	jdev    *memJournal
	dest    *destStore
	httpSrv *http.Server
	clients []*sdk.XtractClient
	cancel  context.CancelFunc

	// Decorators, present in traced runs only.
	srcStores []*tracedStore
	extStats  *opCounters
	validator *tracedValidator

	jobSeq []int // per client: jobs issued so far
}

const authKey = "xtract-bench-key"

// newEnv deploys plan p and connects its clients. With a non-nil tracer
// every pluggable interface handed to the deployment is wrapped.
func newEnv(p *plan, tr *tracer) (*env, error) {
	e := &env{plan: p, tr: tr, jobSeq: make([]int, p.clients)}
	clk := clock.NewReal()
	ctx, cancel := context.WithCancel(context.Background())
	e.cancel = cancel

	e.jdev = newMemJournal(tr)
	var err error
	if e.jnl, err = journal.Open(e.jdev, journal.Options{Clock: clk}); err != nil {
		e.close()
		return nil, fmt.Errorf("open journal: %w", err)
	}

	tenants := tenant.NewController(tenant.Config{Clock: clk, TaskSlots: p.taskSlots})
	issuer := auth.NewIssuer([]byte(authKey), clk)

	lib := p.library
	if lib == nil {
		lib = extractors.DefaultLibrary()
	}
	val := p.validator
	if val == nil {
		val = validate.Passthrough{}
	}
	e.dest = newDestStore(tr, p.slotOf)
	specs := make([]deploy.SiteSpec, 0, len(p.sites))
	for _, s := range p.sites {
		st := s.store
		if tr != nil {
			ts := &tracedStore{inner: st, tr: tr, slotOf: p.slotOf}
			e.srcStores = append(e.srcStores, ts)
			st = ts
		}
		specs = append(specs, deploy.SiteSpec{Name: s.name, Store: st, Workers: s.workers})
	}
	if tr != nil {
		e.extStats = &opCounters{}
		if lib, err = traceLibrary(lib, tr, p.slotOf, e.extStats); err != nil {
			e.close()
			return nil, err
		}
		e.validator = &tracedValidator{inner: val, tr: tr, slotOf: p.slotOf}
		val = e.validator
	}

	e.dep, err = deploy.New(ctx, clk, specs, deploy.Options{
		Library:       lib,
		Validator:     val,
		Dest:          e.dest,
		CacheCapacity: p.cacheCap,
		FaaSCosts:     p.costs,
		Journal:       e.jnl,
		Tenants:       tenants,
	})
	if err != nil {
		e.close()
		return nil, fmt.Errorf("deploy: %w", err)
	}
	for _, l := range p.links {
		e.dep.Fabric.SetLink(l.src, l.dst, l.link)
	}

	srv := api.NewServer(e.dep.Service, e.dep.Registry, e.dep.Library, issuer)
	srv.SetObserver(e.dep.Obs)
	srv.SetBaseContext(e.dep.Ctx)
	srv.SetTenants(tenants)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	e.httpSrv = &http.Server{Handler: srv.Handler(), ErrorLog: log.New(io.Discard, "", 0)}
	go func() { _ = e.httpSrv.Serve(ln) }()

	base := "http://" + ln.Addr().String()
	scopes := []string{auth.ScopeExtract, auth.ScopeCrawl, auth.ScopeValidate}
	for c := 0; c < p.clients; c++ {
		// One keep-alive connection per client: the clients are closed
		// loops, so each has at most one request in flight.
		hc := &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		}
		tok := issuer.Issue(fmt.Sprintf("client-%02d", c), scopes, time.Hour)
		e.clients = append(e.clients, sdk.New(base, tok, sdk.WithHTTPClient(hc)))
	}
	return e, nil
}

// close stops the server, the deployment and the journal, and waits for
// the HTTP server's goroutines.
func (e *env) close() {
	if e.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = e.httpSrv.Shutdown(ctx)
		cancel()
	}
	for _, c := range e.clients {
		c.HTTPClient.CloseIdleConnections()
	}
	if e.dep != nil {
		e.dep.Close()
	}
	if e.jnl != nil {
		_ = e.jnl.Close()
	}
	e.cancel()
}

// Command xtract is the Xtract CLI: crawl a local directory tree, apply
// the metadata extractor library, and write validated metadata documents.
// It can also serve the REST API for SDK-driven jobs.
//
//	xtract extract -root DIR [-out DIR] [-grouper matio] [-workers 8]
//	xtract serve   -root DIR -addr :8080 [-cache N] [-journal DIR] [-auth-key KEY]
//	xtract extractors
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"xtract/internal/api"
	"xtract/internal/auth"
	"xtract/internal/clock"
	"xtract/internal/cluster"
	"xtract/internal/deploy"
	"xtract/internal/extractors"
	"xtract/internal/index"
	"xtract/internal/journal"
	"xtract/internal/store"
	"xtract/internal/tenant"
	"xtract/internal/validate"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "extract":
		err = runExtract(os.Args[2:])
	case "serve":
		err = runServe(os.Args[2:])
	case "search":
		err = runSearch(os.Args[2:])
	case "extractors":
		for _, name := range extractors.DefaultLibrary().Names() {
			fmt.Println(name)
		}
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "xtract:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  xtract extract -root DIR [-out DIR] [-grouper single|extension|directory|matio] [-workers N] [-validator passthrough|mdf]
  xtract search  -metadata DIR -q QUERY
  xtract serve   -root DIR [-addr :8080] [-cache N] [-journal DIR] [-auth-key KEY] [-task-slots N]
                 [-node-id ID -cluster-peers id=URL,id=URL,... [-lease-ttl 10s]]
  xtract extractors`)
}

func runExtract(args []string) error {
	fs := flag.NewFlagSet("extract", flag.ExitOnError)
	root := fs.String("root", "", "directory to process (required)")
	out := fs.String("out", "", "directory for metadata documents (default <root>/.xtract-metadata)")
	grouperName := fs.String("grouper", "matio", "grouping function")
	workers := fs.Int("workers", 8, "extraction workers")
	validatorName := fs.String("validator", "passthrough", "validator: passthrough|mdf")
	_ = fs.Parse(args)
	if *root == "" {
		return fmt.Errorf("-root is required")
	}
	if *out == "" {
		*out = *root + "/.xtract-metadata"
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}

	osSrc, err := store.NewOSStore("local", *root)
	if err != nil {
		return err
	}
	dest, err := store.NewOSStore("dest", *out)
	if err != nil {
		return err
	}
	// An output directory inside the root (the default) is not input: a
	// second run would extract metadata about the first run's documents.
	var src store.Store = osSrc
	if rel, err := filepath.Rel(osSrc.Root(), dest.Root()); err == nil && filepath.IsLocal(rel) && rel != "." {
		src = store.Hide(osSrc, filepath.ToSlash(rel))
	}
	var validator validate.Validator = validate.Passthrough{}
	if *validatorName == "mdf" {
		validator = validate.NewMDF("local")
	}

	clk := clock.NewReal()
	d, err := deploy.New(context.Background(), clk, []deploy.SiteSpec{
		{Name: "local", Store: src, Workers: *workers},
	}, deploy.Options{Validator: validator, Dest: dest})
	if err != nil {
		return err
	}
	defer d.Close()

	start := time.Now()
	stats, err := d.Service.RunJob(context.Background(), []journal.RepoSpec{{
		Site:    "local",
		Roots:   []string{"/"},
		Grouper: *grouperName,
	}})
	if err != nil {
		return err
	}
	// RunJob returns once the job is terminal, which it is only with every
	// document written.
	fmt.Printf("crawled %d files (%d dirs) in %d groups\n",
		stats.Crawl.FilesSeen, stats.Crawl.DirsListed, stats.Crawl.GroupsFormed)
	fmt.Printf("processed %d families (%d extractor invocations, %d failed) in %v\n",
		stats.FamiliesDone, stats.StepsProcessed, stats.StepsFailed,
		time.Since(start).Round(time.Millisecond))
	fmt.Printf("validated %d metadata documents → %s\n",
		d.Validation.Validated.Load(), *out)
	return nil
}

// serveFlags is what `xtract serve` is told on its command line.
type serveFlags struct {
	root, addr, journalDir, authKey, nodeID, clusterPeers string
	workers, cacheCap, taskSlots                          int
	pprof, devTokens                                      bool
	tenant                                                tenant.Limits
	leaseTTL                                              time.Duration
}

func parseServe(args []string) (serveFlags, error) {
	var f serveFlags
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	fs.StringVar(&f.root, "root", "", "directory to expose as the 'local' site (required)")
	fs.StringVar(&f.addr, "addr", ":8080", "listen address")
	fs.IntVar(&f.workers, "workers", 8, "extraction workers")
	fs.IntVar(&f.cacheCap, "cache", 4096, "result cache capacity in entries (0 disables)")
	fs.StringVar(&f.journalDir, "journal", "", "durable job journal directory (enables crash recovery)")
	fs.BoolVar(&f.pprof, "pprof", false, "expose net/http/pprof handlers under /debug/pprof/")
	fs.StringVar(&f.authKey, "auth-key", "", "HMAC signing key; enables bearer-token auth on the API")
	fs.BoolVar(&f.devTokens, "dev-tokens", false, "expose POST /api/v1/token to mint tokens (requires -auth-key; dev only)")
	fs.Float64Var(&f.tenant.SubmitRate, "tenant-rate", 0, "per-tenant job submissions per second (0 = unlimited)")
	fs.IntVar(&f.tenant.SubmitBurst, "tenant-burst", 0, "per-tenant submission burst (default 1 when -tenant-rate is set)")
	fs.IntVar(&f.tenant.MaxActiveJobs, "tenant-max-jobs", 0, "per-tenant concurrent job cap (0 = unlimited)")
	fs.IntVar(&f.tenant.MaxInFlightTasks, "tenant-inflight", 0, "per-tenant in-flight task cap (0 = unlimited)")
	fs.IntVar(&f.taskSlots, "task-slots", 0, "global task slots shared fairly across tenants (0 = unlimited)")
	fs.StringVar(&f.nodeID, "node-id", "", "this node's cluster identity (required with -cluster-peers)")
	fs.StringVar(&f.clusterPeers, "cluster-peers", "", "comma-separated id=http://host:port cluster members, including this node; enables cluster mode")
	fs.DurationVar(&f.leaseTTL, "lease-ttl", 10*time.Second, "job ownership lease TTL in cluster mode")
	_ = fs.Parse(args)
	if f.root == "" {
		return f, fmt.Errorf("-root is required")
	}
	if f.devTokens && f.authKey == "" {
		return f, fmt.Errorf("-dev-tokens requires -auth-key")
	}
	return f, nil
}

func runServe(args []string) error {
	f, err := parseServe(args)
	if err != nil {
		return err
	}
	// SIGINT/SIGTERM begin a graceful shutdown: stop accepting requests,
	// flush the journal, and wind down the deployment's goroutines.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return serve(ctx, f)
}

// serve runs the service until ctx ends. The deployment has a context of
// its own, ended only after the drain is marked: a signal that cancelled
// job contexts first would have them journaled CANCELLED, not suspended.
func serve(ctx context.Context, f serveFlags) error {
	src, err := store.NewOSStore("local", f.root)
	if err != nil {
		return err
	}
	clk := clock.NewReal()
	var jnl *journal.Journal
	if f.journalDir != "" {
		jdir, err := journal.OSDir(f.journalDir)
		if err != nil {
			return err
		}
		if jnl, err = journal.Open(jdir, journal.Options{Clock: clk}); err != nil {
			return err
		}
	}
	// Tenancy: quotas, fair-share task scheduling, and per-tenant
	// accounting. Always on so the usage endpoint and tenant metrics
	// work even with no limits configured.
	tenants := tenant.NewController(tenant.Config{Clock: clk, Defaults: f.tenant, TaskSlots: f.taskSlots})
	node, err := f.clusterNode(clk, jnl, tenants)
	if err != nil {
		return err
	}
	d, err := deploy.New(context.Background(), clk, []deploy.SiteSpec{{Name: "local", Store: src, Workers: f.workers}},
		deploy.Options{CacheCapacity: f.cacheCap, Journal: jnl, Tenants: tenants, Cluster: node})
	if err != nil {
		return err
	}
	defer d.Close()
	var issuer *auth.Issuer
	if f.authKey != "" {
		issuer = auth.NewIssuer([]byte(f.authKey), clk)
	}
	srv := api.NewServer(d.Service, d.Registry, d.Library, issuer)
	srv.SetObserver(d.Obs)
	srv.SetBaseContext(d.Ctx)
	srv.SetTenants(tenants)
	if node != nil {
		srv.SetCluster(node)
	}
	if f.devTokens {
		srv.EnableDevTokens()
		fmt.Printf("dev token minting enabled at POST /api/v1/token\n")
	}
	srv.EnableSearch(index.New(), d.Dest, "/metadata")
	if err := startRecovery(d, jnl, node, f.leaseTTL); err != nil {
		return err
	}
	fmt.Printf("xtract service listening on %s (site 'local' → %s)\n", f.addr, f.root)
	fmt.Printf("metrics exposed at %s/metrics\n", f.addr)
	return listen(ctx, f, srv.Handler(), d, jnl)
}

// clusterNode is this node's handle on the static membership -cluster-peers
// names (nil without it). Every node builds the same ring from the same list,
// so a submission hashes to one owner whichever node it reaches (the rest
// answer 307); leases are journaled and job IDs carry -node-id.
func (f serveFlags) clusterNode(clk clock.Clock, jnl *journal.Journal, tenants *tenant.Controller) (*cluster.Node, error) {
	if f.clusterPeers == "" {
		return nil, nil
	}
	if f.nodeID == "" {
		return nil, fmt.Errorf("-cluster-peers requires -node-id")
	}
	if jnl == nil {
		return nil, fmt.Errorf("-cluster-peers requires -journal (ownership leases are journaled)")
	}
	coord := cluster.NewCoordinator(cluster.Options{Clock: clk, LeaseTTL: f.leaseTTL, Journal: jnl})
	var node *cluster.Node
	for _, p := range strings.Split(f.clusterPeers, ",") {
		id, addr, ok := strings.Cut(strings.TrimSpace(p), "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("bad -cluster-peers entry %q (want id=http://host:port)", p)
		}
		if id == f.nodeID {
			node = cluster.NewNode(coord, id, addr)
		} else {
			coord.Join(id, addr)
		}
	}
	if node == nil {
		return nil, fmt.Errorf("-cluster-peers does not list -node-id %q", f.nodeID)
	}
	coord.RegisterUsage(f.nodeID, tenants.UsageFor)
	tenants.SetPeerActive(func(t string) int { return coord.PeerActive(f.nodeID, t) })
	return node, nil
}

// startRecovery replays the journal, resuming what it left unfinished, and
// starts the node loop: heartbeats, lease renewal — a job whose lease is
// lost stops here — and adoption of orphaned jobs the ring places here.
func startRecovery(d *deploy.Deployment, jnl *journal.Journal, node *cluster.Node, leaseTTL time.Duration) error {
	if jnl != nil {
		status, err := d.Service.Recover(d.Ctx)
		if err != nil {
			return err
		}
		fmt.Printf("journal: %d records replayed (%d segments", status.Records, status.Segments)
		if status.TornTail {
			fmt.Printf(", torn tail tolerated")
		}
		fmt.Printf("); recovery: %d resumed, %d terminal, %d cancelled, %d failed, %d steps reconciled",
			status.Resumed, status.Terminal, status.Cancelled, status.Failed, status.StepsReconciled)
		if status.Foreign > 0 {
			fmt.Printf(", %d owned elsewhere", status.Foreign)
		}
		fmt.Println()
	}
	if node != nil {
		go node.Run(d.Ctx, func(scanCtx context.Context, lost []string) {
			for _, id := range lost {
				d.Service.Cancel(id)
			}
			d.Service.FailoverScan(scanCtx)
		})
		fmt.Printf("cluster: node %q of %d members, lease TTL %v\n",
			node.ID(), len(node.Coordinator().Members()), leaseTTL)
	}
	return nil
}

// listen serves until ctx ends, then shuts down in the order that suspends
// in-flight jobs: drain mark, HTTP, deployment (every job context), journal.
func listen(ctx context.Context, f serveFlags, handler http.Handler, d *deploy.Deployment, jnl *journal.Journal) error {
	if f.pprof {
		// Profiling rides the API listener so one port serves both; off
		// by default since the pprof endpoints disclose runtime internals.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		fmt.Printf("pprof exposed at %s/debug/pprof/\n", f.addr)
	}
	httpSrv := &http.Server{Addr: f.addr, Handler: handler}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	// A job still running is suspended, not ended: its documents are not
	// all written yet, and recovery on the same journal runs it again, so
	// the validator has nothing to drain.
	fmt.Println("shutting down: draining jobs, flushing journal")
	d.Service.BeginShutdown()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = httpSrv.Shutdown(shutdownCtx)
	d.Close()
	if jnl != nil {
		if err := jnl.Close(); err != nil {
			return fmt.Errorf("journal close: %w", err)
		}
	}
	return nil
}

// runSearch builds an index over a metadata output directory on disk
// (as written by `xtract extract`) and answers one query.
func runSearch(args []string) error {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	metaDir := fs.String("metadata", "", "metadata directory, e.g. <root>/.xtract-metadata (required)")
	q := fs.String("q", "", "query terms (required)")
	limit := fs.Int("limit", 10, "maximum hits to print")
	_ = fs.Parse(args)
	if *metaDir == "" || *q == "" {
		return fmt.Errorf("-metadata and -q are required")
	}
	src, err := store.NewOSStore("metadata", *metaDir)
	if err != nil {
		return err
	}
	ix := index.New()
	n, err := ix.IngestStore(src, "/")
	if err != nil && n == 0 {
		return err
	}
	docs, terms := ix.Stats()
	fmt.Printf("indexed %d documents (%d terms)\n", docs, terms)
	hits := ix.Search(*q)
	if len(hits) == 0 {
		fmt.Println("no hits")
		return nil
	}
	for i, h := range hits {
		if i >= *limit {
			fmt.Printf("... and %d more\n", len(hits)-*limit)
			break
		}
		fmt.Printf("%7.3f  %s\n", h.Score, h.DocID)
	}
	return nil
}

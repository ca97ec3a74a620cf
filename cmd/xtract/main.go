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
	"xtract/internal/core"
	"xtract/internal/crawler"
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

	lib := extractors.DefaultLibrary()
	grouper, err := crawler.GrouperByName(*grouperName, lib)
	if err != nil {
		return err
	}
	clk := clock.NewReal()
	d, err := deploy.New(context.Background(), clk, []deploy.SiteSpec{
		{Name: "local", Store: src, Workers: *workers},
	}, deploy.Options{Library: lib, Validator: validator, Dest: dest, Checkpoint: false})
	if err != nil {
		return err
	}
	defer d.Close()

	start := time.Now()
	stats, err := d.Service.RunJob(context.Background(), []core.RepoSpec{{
		SiteName: "local",
		Roots:    []string{"/"},
		Grouper:  grouper,
	}})
	if err != nil {
		return err
	}
	d.DrainValidation()
	fmt.Printf("crawled %d files (%d dirs) in %d groups\n",
		stats.Crawl.FilesSeen, stats.Crawl.DirsListed, stats.Crawl.GroupsFormed)
	fmt.Printf("processed %d families (%d extractor invocations, %d failed) in %v\n",
		stats.FamiliesDone, stats.StepsProcessed, stats.StepsFailed,
		time.Since(start).Round(time.Millisecond))
	fmt.Printf("validated %d metadata documents → %s\n",
		d.Validation.Validated.Load(), *out)
	return nil
}

func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	root := fs.String("root", "", "directory to expose as the 'local' site (required)")
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 8, "extraction workers")
	cacheCap := fs.Int("cache", 4096, "result cache capacity in entries (0 disables)")
	journalDir := fs.String("journal", "", "durable job journal directory (enables crash recovery)")
	pprofOn := fs.Bool("pprof", false, "expose net/http/pprof handlers under /debug/pprof/")
	authKey := fs.String("auth-key", "", "HMAC signing key; enables bearer-token auth on the API")
	devTokens := fs.Bool("dev-tokens", false, "expose POST /api/v1/token to mint tokens (requires -auth-key; dev only)")
	tenantRate := fs.Float64("tenant-rate", 0, "per-tenant job submissions per second (0 = unlimited)")
	tenantBurst := fs.Int("tenant-burst", 0, "per-tenant submission burst (default 1 when -tenant-rate is set)")
	tenantMaxJobs := fs.Int("tenant-max-jobs", 0, "per-tenant concurrent job cap (0 = unlimited)")
	tenantInflight := fs.Int("tenant-inflight", 0, "per-tenant in-flight task cap (0 = unlimited)")
	taskSlots := fs.Int("task-slots", 0, "global task slots shared fairly across tenants (0 = unlimited)")
	nodeID := fs.String("node-id", "", "this node's cluster identity (required with -cluster-peers)")
	clusterPeers := fs.String("cluster-peers", "", "comma-separated id=http://host:port cluster members, including this node; enables cluster mode")
	leaseTTL := fs.Duration("lease-ttl", 10*time.Second, "job ownership lease TTL in cluster mode")
	_ = fs.Parse(args)
	if *root == "" {
		return fmt.Errorf("-root is required")
	}
	src, err := store.NewOSStore("local", *root)
	if err != nil {
		return err
	}
	clk := clock.NewReal()

	// SIGINT/SIGTERM begin a graceful shutdown: stop accepting requests,
	// flush the journal, and wind down the deployment's goroutines.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var jnl *journal.Journal
	if *journalDir != "" {
		jdir, err := journal.OSDir(*journalDir)
		if err != nil {
			return err
		}
		jnl, err = journal.Open(jdir, journal.Options{Clock: clk})
		if err != nil {
			return err
		}
	}

	// Tenancy: quotas, fair-share task scheduling, and per-tenant
	// accounting. Always on so the usage endpoint and tenant metrics
	// work even with no limits configured.
	tenants := tenant.NewController(tenant.Config{
		Clock: clk,
		Defaults: tenant.Limits{
			SubmitRate:       *tenantRate,
			SubmitBurst:      *tenantBurst,
			MaxActiveJobs:    *tenantMaxJobs,
			MaxInFlightTasks: *tenantInflight,
		},
		TaskSlots: *taskSlots,
	})

	var issuer *auth.Issuer
	if *authKey != "" {
		issuer = auth.NewIssuer([]byte(*authKey), clk)
	}
	if *devTokens && issuer == nil {
		return fmt.Errorf("-dev-tokens requires -auth-key")
	}

	// Cluster mode: static membership from -cluster-peers. Every node
	// builds the same consistent-hash ring from the same peer list, so
	// submissions hash to the same owner no matter which node a client
	// dials; non-owners answer 307 to the owner. Ownership leases are
	// journaled, and minted job IDs carry -node-id so nodes sharing a
	// journal directory never collide.
	var node *cluster.Node
	if *clusterPeers != "" {
		if *nodeID == "" {
			return fmt.Errorf("-cluster-peers requires -node-id")
		}
		if jnl == nil {
			return fmt.Errorf("-cluster-peers requires -journal (ownership leases are journaled)")
		}
		coord := cluster.NewCoordinator(cluster.Options{Clock: clk, LeaseTTL: *leaseTTL, Journal: jnl})
		self := false
		for _, p := range strings.Split(*clusterPeers, ",") {
			id, addr, ok := strings.Cut(strings.TrimSpace(p), "=")
			if !ok || id == "" || addr == "" {
				return fmt.Errorf("bad -cluster-peers entry %q (want id=http://host:port)", p)
			}
			if id == *nodeID {
				self = true
				node = cluster.NewNode(coord, id, addr)
			} else {
				coord.Join(id, addr)
			}
		}
		if !self {
			return fmt.Errorf("-cluster-peers does not list -node-id %q", *nodeID)
		}
		coord.RegisterUsage(*nodeID, tenants.UsageFor)
		tenants.SetPeerActive(func(t string) int { return coord.PeerActive(*nodeID, t) })
	}

	d, err := deploy.New(ctx, clk, []deploy.SiteSpec{
		{Name: "local", Store: src, Workers: *workers},
	}, deploy.Options{CacheCapacity: *cacheCap, Journal: jnl, Tenants: tenants, Cluster: node})
	if err != nil {
		return err
	}
	defer d.Close()
	srv := api.NewServer(d.Service, d.Registry, d.Library, issuer)
	srv.SetObserver(d.Obs)
	srv.SetBaseContext(d.Ctx)
	srv.SetTenants(tenants)
	if node != nil {
		srv.SetCluster(node)
	}
	if *devTokens {
		srv.EnableDevTokens()
		fmt.Printf("dev token minting enabled at POST /api/v1/token\n")
	}
	srv.EnableSearch(index.New(), d.Dest, "/metadata")

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
		// The node loop heartbeats, renews this node's job leases — a job
		// whose lease is lost stops here — and scans for orphaned jobs
		// (dead owner, ring says ours) to adopt.
		go node.Run(d.Ctx, func(scanCtx context.Context, lost []string) {
			for _, id := range lost {
				d.Service.Cancel(id)
			}
			d.Service.FailoverScan(scanCtx)
		})
		fmt.Printf("cluster: node %q of %d members, lease TTL %v\n",
			node.ID(), len(node.Coordinator().Members()), *leaseTTL)
	}

	handler := srv.Handler()
	if *pprofOn {
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
		fmt.Printf("pprof exposed at %s/debug/pprof/\n", *addr)
	}
	fmt.Printf("xtract service listening on %s (site 'local' → %s)\n", *addr, *root)
	fmt.Printf("metrics exposed at %s/metrics\n", *addr)

	httpSrv := &http.Server{Addr: *addr, Handler: handler}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	fmt.Println("shutting down: draining jobs, flushing journal")
	// Mark the drain before cancelling job contexts so in-flight jobs are
	// suspended (and later recovered), not recorded as cancelled.
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

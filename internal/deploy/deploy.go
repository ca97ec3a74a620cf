// Package deploy assembles a complete live Xtract deployment — FaaS
// service, transfer fabric, prefetcher, registry, core service, and
// validation service — from a list of site specifications. It is the
// wiring used by the CLI, the REST server, and the examples.
package deploy

import (
	"context"
	"fmt"

	"xtract/internal/cache"
	"xtract/internal/clock"
	"xtract/internal/cluster"
	"xtract/internal/core"
	"xtract/internal/extractors"
	"xtract/internal/faas"
	"xtract/internal/journal"
	"xtract/internal/obs"
	"xtract/internal/queue"
	"xtract/internal/registry"
	"xtract/internal/scheduler"
	"xtract/internal/store"
	"xtract/internal/tenant"
	"xtract/internal/transfer"
	"xtract/internal/validate"
)

// SiteSpec describes one endpoint of the deployment.
type SiteSpec struct {
	// Name is the site identifier; crawled families carry it.
	Name string
	// Store is the site's data layer.
	Store store.Store
	// Workers sizes the compute layer; 0 makes a storage-only site.
	Workers int
	// StagePath receives prefetched files (default "/xtract-stage").
	StagePath string
	// DeleteStaged removes staged copies after extraction.
	DeleteStaged bool
	// DirectFetch makes this site's workers download remote files
	// per-file at extraction time instead of batch-prefetching (for
	// sites without a shared file system, like River pods).
	DirectFetch bool
	// ExcludeExtractors lists extractors whose containers cannot run at
	// this site.
	ExcludeExtractors []string
	// StageCapacityBytes bounds staged data at this site (0 = unlimited).
	StageCapacityBytes int64
}

// Options tunes the deployment.
type Options struct {
	// Policy is the placement policy (default LocalPolicy).
	Policy scheduler.Policy
	// Validator transforms finished records (default Passthrough).
	Validator validate.Validator
	// Dest receives validated metadata documents (default an in-memory
	// store named "metadata-dest").
	Dest store.Store
	// Library overrides the extractor set (default DefaultLibrary).
	Library *extractors.Library
	// XtractBatchSize / FuncXBatchSize override batching (defaults 8/16).
	XtractBatchSize int
	FuncXBatchSize  int
	// Checkpoint enables endpoint-side checkpointing.
	Checkpoint bool
	// FaaSCosts injects control-plane latencies (default zero).
	FaaSCosts faas.Costs
	// CacheCapacity, when > 0, enables the extraction result cache with
	// this in-memory entry bound; warm re-runs over unchanged content
	// replay cached metadata instead of dispatching extractors.
	CacheCapacity int
	// CachePersistPrefix, with CacheCapacity > 0, additionally persists
	// cache entries under this prefix on the destination store so warm
	// state survives restarts.
	CachePersistPrefix string
	// Journal, when set, is the durable job journal the core service
	// writes every job state transition to; pass an opened journal (its
	// replayed state feeds Service.Recover at startup).
	Journal *journal.Journal
	// Tenants, when set, is the multi-tenant admission and accounting
	// controller; it is instrumented on the deployment's metric registry
	// and wired into the core service.
	Tenants *tenant.Controller
	// Cluster, when set, makes this deployment one node of a multi-node
	// cluster: the core service fences journal writes by job lease, and
	// minted job IDs carry the node identity so nodes sharing a journal
	// never collide.
	Cluster *cluster.Node
	// Hedge enables hedged speculative execution: steps running past
	// their extractor's online latency estimate get a duplicate on
	// another site, first result wins.
	Hedge core.HedgePolicy
	// Breakers enables per-site circuit breakers over task outcomes.
	Breakers core.BreakerPolicy
	// Shed enables overload shedding at the API front door.
	Shed core.ShedPolicy
	// StragglerBudget, when > 0, lets a job finish DEGRADED with partial
	// results while at most this many steps dead-lettered.
	StragglerBudget int
}

// Deployment is a running Xtract instance.
type Deployment struct {
	Service    *core.Service
	Registry   *registry.Registry
	Library    *extractors.Library
	FaaS       *faas.Service
	Fabric     *transfer.Fabric
	Prefetcher *transfer.Prefetcher
	Validation *validate.Service
	Dest       store.Store
	// Cache is the extraction result cache (nil unless CacheCapacity > 0).
	Cache *cache.Cache
	// Tenants is the tenancy controller (nil unless Options.Tenants).
	Tenants *tenant.Controller
	// Obs is the deployment-wide observability layer: every substrate
	// reports into its metric registry and per-job event tracer.
	Obs    *obs.Observer
	Queues struct {
		Families, Prefetch, PrefetchDone, Results *queue.Queue
	}

	// Ctx is the deployment lifecycle context; it is cancelled by Close.
	Ctx    context.Context
	cancel context.CancelFunc
}

// New wires and starts a deployment. Close it when done.
func New(ctx context.Context, clk clock.Clock, sites []SiteSpec, opts Options) (*Deployment, error) {
	if len(sites) == 0 {
		return nil, fmt.Errorf("deploy: no sites")
	}
	opts = opts.withDefaults()
	ctx, cancel := context.WithCancel(ctx)

	d := &Deployment{
		Library: opts.Library,
		FaaS:    faas.NewService(clk, opts.FaaSCosts),
		Fabric:  transfer.NewFabric(clk),
		Dest:    opts.Dest,
		Obs:     obs.New(clk),
		Ctx:     ctx,
		cancel:  cancel,
	}
	d.Registry = registry.New(clk, 0)
	if opts.Cluster != nil {
		d.Registry.SetIDPrefix(opts.Cluster.ID())
	}
	families, prefetch, prefetchDone, results := core.NewQueues(clk)
	d.Queues.Families, d.Queues.Prefetch = families, prefetch
	d.Queues.PrefetchDone, d.Queues.Results = prefetchDone, results

	d.FaaS.Instrument(d.Obs.Reg())
	d.Fabric.Instrument(d.Obs.Reg())
	for _, q := range []*queue.Queue{families, prefetch, prefetchDone, results} {
		q.Instrument(d.Obs.Reg())
	}

	if opts.CacheCapacity > 0 {
		if opts.CachePersistPrefix != "" {
			d.Cache = cache.NewPersistent(opts.CacheCapacity, opts.Dest, opts.CachePersistPrefix)
		} else {
			d.Cache = cache.New(opts.CacheCapacity)
		}
	}

	d.Service = core.New(core.Config{
		Clock:           clk,
		FaaS:            d.FaaS,
		Fabric:          d.Fabric,
		Registry:        d.Registry,
		Library:         opts.Library,
		PrefetchQueue:   prefetch,
		PrefetchDone:    prefetchDone,
		ResultQueue:     results,
		Policy:          opts.Policy,
		XtractBatchSize: opts.XtractBatchSize,
		FuncXBatchSize:  opts.FuncXBatchSize,
		Checkpoint:      opts.Checkpoint,
		Obs:             d.Obs,
		Cache:           d.Cache,
		Journal:         opts.Journal,
		Tenants:         opts.Tenants,
		Cluster:         opts.Cluster,
		Hedge:           opts.Hedge,
		Breakers:        opts.Breakers,
		Shed:            opts.Shed,
		StragglerBudget: opts.StragglerBudget,
	})
	d.Tenants = opts.Tenants
	opts.Tenants.Instrument(d.Obs.Reg())

	if err := d.addSites(ctx, clk, sites); err != nil {
		cancel()
		return nil, err
	}

	d.Prefetcher = transfer.NewPrefetcher(d.Fabric, prefetch, prefetchDone, clk)
	go d.Prefetcher.Run(ctx, 10) // transfer jobs in flight, as in the paper's Fig. 6 run

	d.Validation = validate.NewService(opts.Validator, results, opts.Dest)
	d.Validation.Instrument(d.Obs)
	go d.Validation.Run(ctx)
	return d, nil
}

// withDefaults fills in the library, validator and destination store.
func (opts Options) withDefaults() Options {
	if opts.Library == nil {
		opts.Library = extractors.DefaultLibrary()
	}
	if opts.Validator == nil {
		opts.Validator = validate.Passthrough{}
	}
	if opts.Dest == nil {
		opts.Dest = store.NewMemFS("metadata-dest", nil)
	}
	return opts
}

// addSites registers each site with the transfer fabric and the core
// service, starting a FaaS endpoint for every site with workers, then
// registers the extractors on them.
func (d *Deployment) addSites(ctx context.Context, clk clock.Clock, sites []SiteSpec) error {
	for _, spec := range sites {
		d.Fabric.AddEndpoint(spec.Name, spec.Store)
		site := &core.Site{
			Name:               spec.Name,
			Store:              spec.Store,
			TransferID:         spec.Name,
			StagePath:          spec.StagePath,
			DeleteStaged:       spec.DeleteStaged,
			DirectFetch:        spec.DirectFetch,
			ExcludeExtractors:  spec.ExcludeExtractors,
			StageCapacityBytes: spec.StageCapacityBytes,
		}
		if site.StagePath == "" {
			site.StagePath = "/xtract-stage"
		}
		if spec.Workers > 0 {
			ep := faas.NewEndpoint("ep-"+spec.Name, spec.Workers, clk)
			d.FaaS.RegisterEndpoint(ep)
			if err := ep.Start(ctx); err != nil {
				return err
			}
			site.Compute = ep
		}
		d.Service.AddSite(site)
	}
	return d.Service.RegisterExtractors()
}

// Close stops the deployment's background services and endpoints.
func (d *Deployment) Close() { d.cancel() }

// DrainValidation synchronously validates any remaining queued records.
func (d *Deployment) DrainValidation() { d.Validation.Drain() }

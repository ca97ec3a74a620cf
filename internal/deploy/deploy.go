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
	core.SiteSettings
}

// Options tunes the deployment. The service's own settings are
// core.Settings, passed to core.New whole.
type Options struct {
	core.Settings
	// Validator transforms finished records (default Passthrough).
	Validator validate.Validator
	// Dest receives validated metadata documents (default an in-memory
	// store named "metadata-dest").
	Dest store.Store
	// Library overrides the extractor set (default DefaultLibrary).
	Library *extractors.Library
	// FaaSCosts injects control-plane latencies (default zero).
	FaaSCosts faas.Costs
	// CacheCapacity, when > 0, enables the extraction result cache with
	// this in-memory entry bound; warm re-runs over unchanged content
	// replay cached metadata instead of dispatching extractors.
	CacheCapacity int
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
	// the job IDs it mints carry the node identity so nodes sharing a
	// journal never collide.
	Cluster *cluster.Node
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
	// reports into its metric registry and per-job event ring.
	Obs *obs.Observer
	// Queues carry nothing: finished families reach Validation as values.
	// They are kept for the benchmark harness, which reads their Stats.
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
	d.Queues.Families, d.Queues.Results = queue.New("crawl-families", clk), queue.New("validation-results", clk)
	d.Queues.Prefetch, d.Queues.PrefetchDone = queue.New("prefetch-tasks", clk), queue.New("prefetch-done", clk)
	d.Prefetcher = transfer.NewPrefetcher(d.Fabric, clk)
	d.Validation = validate.NewService(opts.Validator, opts.Dest)

	reg := d.Obs.Reg()
	d.FaaS.Instrument(reg)
	d.Fabric.Instrument(reg)
	d.Validation.Instrument(d.Obs)
	reg.GaugeFunc("xtract_prefetch_pending", "Staging tasks handed to the prefetcher and not yet reported.", nil,
		func() float64 { return float64(d.Prefetcher.Pending()) })
	reg.GaugeFunc("xtract_validate_pending", "Validation records handed to the validator and not yet reported.", nil,
		func() float64 { return float64(d.Validation.Pending()) })

	if opts.CacheCapacity > 0 {
		d.Cache = cache.New(opts.CacheCapacity)
	}

	d.Service = core.New(core.Config{
		Settings:   opts.Settings,
		Clock:      clk,
		FaaS:       d.FaaS,
		Fabric:     d.Fabric,
		Library:    opts.Library,
		Prefetcher: d.Prefetcher,
		Validation: d.Validation,
		Obs:        d.Obs,
		Cache:      d.Cache,
		Journal:    opts.Journal,
		Tenants:    opts.Tenants,
		Cluster:    opts.Cluster,
	})
	d.Tenants = opts.Tenants
	opts.Tenants.Instrument(d.Obs.Reg())

	if err := d.addSites(ctx, clk, sites); err != nil {
		cancel()
		return nil, err
	}

	go d.Prefetcher.Run(ctx, 10) // transfer jobs in flight, as in the paper's Fig. 6 run
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
		site := &core.Site{Name: spec.Name, Store: spec.Store, SiteSettings: spec.SiteSettings}
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

// Close stops the deployment's background services and endpoints. A job
// still running is not terminal: its documents are not all written, and
// recovery from the journal runs it again.
func (d *Deployment) Close() { d.cancel() }

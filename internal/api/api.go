// Package api exposes the Xtract service over HTTP as a REST API, the
// interaction surface of the paper's microservice architecture, plus the
// request/response types shared with the client SDK.
//
// The v1 surface (scope column: the auth scope the route requires when
// an issuer is configured):
//
//	POST   /api/v1/jobs                  extract   submit an extraction job
//	GET    /api/v1/jobs                  extract   list the caller's jobs (state=, limit=, offset=)
//	GET    /api/v1/jobs/{id}             extract   poll one job (owner only)
//	GET    /api/v1/jobs/{id}/events      extract   per-job event trace (owner only)
//	DELETE /api/v1/jobs/{id}             extract   cancel a running job (owner only)
//	GET    /api/v1/tenants/{id}/usage    extract   per-tenant cost accounting (own tenant only)
//	GET    /api/v1/sites                 crawl     registered sites
//	GET    /api/v1/extractors            crawl     registered extractors
//	GET    /api/v1/cache                 crawl     extraction result cache statistics
//	GET    /api/v1/recovery              crawl     journal recovery status
//	GET    /api/v1/cluster               crawl     cluster membership and lease counts
//	GET    /api/v1/search                validate  metadata search
//	POST   /api/v1/index/refresh         validate  re-ingest validated metadata
//	POST   /api/v1/token                 —         dev-mode token mint (EnableDevTokens)
//	GET    /metrics                      —         Prometheus text exposition (no auth)
//
// Job routes are tenant-scoped: the tenant is derived from the bearer
// token's identity, a caller only sees its own jobs, and cross-tenant
// access answers 403 with code "tenant_forbidden". Quota refusals answer
// 429 with code "tenant_quota" and a Retry-After header.
//
// When the server runs as a cluster node (SetCluster), job routes are
// placement-aware: a submission hashed to another node — or a request
// for a job whose lease another node holds — answers 307 Temporary
// Redirect with the owner's address in Location. 307 preserves method
// and body, so the client replays the identical request; the SDK
// follows these redirects re-attaching its bearer token (Go's default
// client strips Authorization across hosts).
//
// Errors use a structured envelope {"error": {"code", "message"}}; the
// top-level "message" string mirrors error.message for clients of the
// previous bare-string envelope and will be removed next version.
// Auth failures are machine-readable: 401 "auth_expired" for an expired
// token, 403 "auth_scope" for a valid token lacking the route's scope,
// and 401 "unauthorized" for anything else.
package api

import (
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"xtract/internal/auth"
	"xtract/internal/cache"
	"xtract/internal/cluster"
	"xtract/internal/core"
	"xtract/internal/crawler"
	"xtract/internal/extractors"
	"xtract/internal/index"
	"xtract/internal/obs"
	"xtract/internal/registry"
	"xtract/internal/store"
	"xtract/internal/tenant"
)

// JobRequest submits an extraction job.
type JobRequest struct {
	Repos []RepoRequest `json:"repos"`
	// NoCache bypasses the extraction result cache for this job: every
	// step runs a fresh extractor invocation and nothing is written back.
	NoCache bool `json:"no_cache,omitempty"`
}

// RepoRequest names one repository within a job.
type RepoRequest struct {
	Site          string   `json:"site"`
	Roots         []string `json:"roots"`
	Grouper       string   `json:"grouper"` // single | extension | directory | matio
	CrawlWorkers  int      `json:"crawl_workers,omitempty"`
	MaxFamilySize int      `json:"max_family_size,omitempty"`
	NoMinTransfer bool     `json:"no_min_transfer,omitempty"`
}

// JobResponse returns the job handle.
type JobResponse struct {
	JobID string `json:"job_id"`
}

// JobStatus reports job progress and, when complete, final statistics.
// Stats may be nil for old completed jobs whose statistics have been
// evicted from the bounded result cache; the registry record remains.
type JobStatus struct {
	JobID    string `json:"job_id"`
	State    string `json:"state"`
	Tenant   string `json:"tenant,omitempty"`
	Crawled  int64  `json:"groups_crawled"`
	Done     int64  `json:"groups_done"`
	Err      string `json:"err,omitempty"`
	Complete bool   `json:"complete"`
	// Degraded marks a job that converged with partial results inside
	// the service's straggler budget (terminal state DEGRADED): its
	// metadata shipped, minus the dead-lettered steps listed on Record.
	Degraded bool               `json:"degraded,omitempty"`
	Stats    *core.JobStats     `json:"stats,omitempty"`
	Record   registry.JobRecord `json:"record"`
}

// JobSummary is one row of the job listing.
type JobSummary struct {
	JobID         string    `json:"job_id"`
	State         string    `json:"state"`
	Tenant        string    `json:"tenant,omitempty"`
	Submitted     time.Time `json:"submitted"`
	Repositories  []string  `json:"repositories,omitempty"`
	GroupsCrawled int64     `json:"groups_crawled"`
	GroupsDone    int64     `json:"groups_done"`
	// Recovered marks jobs restored from the durable journal after a
	// service restart.
	Recovered bool `json:"recovered,omitempty"`
}

// JobListResponse answers GET /api/v1/jobs. Total counts every job that
// matched the state filter, before pagination.
type JobListResponse struct {
	Jobs  []JobSummary `json:"jobs"`
	Total int          `json:"total"`
}

// JobEventsResponse is a job's event trace. Dropped counts events
// overwritten by the bounded ring buffer.
type JobEventsResponse struct {
	JobID   string      `json:"job_id"`
	Events  []obs.Event `json:"events"`
	Dropped int64       `json:"dropped"`
}

// CancelResponse acknowledges a cancellation request.
type CancelResponse struct {
	JobID string `json:"job_id"`
	State string `json:"state"`
}

// SitesResponse lists registered sites.
type SitesResponse struct {
	Sites []string `json:"sites"`
}

// CacheStatsResponse answers GET /api/v1/cache. Enabled is false when
// the service runs without an extraction result cache, in which case
// Stats is zero-valued.
type CacheStatsResponse struct {
	Enabled bool        `json:"enabled"`
	Stats   cache.Stats `json:"stats"`
}

// RecoveryResponse answers GET /api/v1/recovery: whether a durable
// journal is configured and, if a recovery pass ran at startup, what it
// restored.
type RecoveryResponse struct {
	Enabled bool                `json:"enabled"`
	Status  core.RecoveryStatus `json:"status"`
}

// ExtractorsResponse lists registered extractors.
type ExtractorsResponse struct {
	Extractors []string `json:"extractors"`
}

// SearchHit is one search result.
type SearchHit struct {
	DocID string  `json:"doc_id"`
	Score float64 `json:"score"`
}

// SearchResponse answers a metadata search query.
type SearchResponse struct {
	Query string      `json:"query"`
	Hits  []SearchHit `json:"hits"`
}

// RefreshResponse reports an index refresh.
type RefreshResponse struct {
	Ingested int `json:"ingested"`
	Docs     int `json:"docs"`
	Terms    int `json:"terms"`
}

// TenantUsageResponse answers GET /api/v1/tenants/{id}/usage: the
// tenant's cumulative cost accounting and effective limits. Enabled is
// false when the service runs without a tenancy controller, in which
// case Usage and Limits are zero-valued. On a cluster node Usage is the
// tenant's accounting summed across every member's controller and
// Global is true; standalone servers report local usage only.
type TenantUsageResponse struct {
	Enabled bool          `json:"enabled"`
	Global  bool          `json:"global,omitempty"`
	Tenant  string        `json:"tenant"`
	Usage   tenant.Usage  `json:"usage"`
	Limits  tenant.Limits `json:"limits"`
}

// ClusterResponse answers GET /api/v1/cluster: membership as the
// answering node sees it. Enabled is false when the server runs
// standalone (no cluster node attached).
type ClusterResponse struct {
	Enabled bool `json:"enabled"`
	// Self is the answering node's ID — lets a client map an address
	// it dialed to a member row.
	Self    string           `json:"self,omitempty"`
	Members []cluster.Member `json:"members,omitempty"`
}

// TokenRequest asks the dev-mode mint endpoint for a bearer token.
type TokenRequest struct {
	Identity string   `json:"identity"`
	Scopes   []string `json:"scopes"`
	// TTLSeconds bounds the token's life (default 3600).
	TTLSeconds int `json:"ttl_seconds,omitempty"`
}

// TokenResponse returns a minted bearer token.
type TokenResponse struct {
	Token string `json:"token"`
	// Tenant is the tenant ID the token's identity maps to.
	Tenant string `json:"tenant"`
}

// Machine-readable error codes carried in the error envelope.
const (
	CodeInvalidRequest = "invalid_request"
	CodeUnauthorized   = "unauthorized"
	CodeNotFound       = "not_found"
	CodeNotImplemented = "not_implemented"
	CodeInternal       = "internal_error"
	CodeJobNotRunning  = "job_not_running"
	CodeUnknownSite    = "unknown_site"
	CodeUnknownGrouper = "unknown_grouper"
	// CodeAuthExpired (401) marks an expired bearer token — SDK clients
	// with a token source re-mint and retry on it.
	CodeAuthExpired = "auth_expired"
	// CodeAuthScope (403) marks a valid token lacking the route's scope.
	CodeAuthScope = "auth_scope"
	// CodeTenantQuota (429) marks a submission refused by the tenant's
	// rate limit or job quota; the Retry-After header carries the wait.
	CodeTenantQuota = "tenant_quota"
	// CodeTenantForbidden (403) marks cross-tenant access to a job or
	// another tenant's usage.
	CodeTenantForbidden = "tenant_forbidden"
	// CodeOverloaded (503) marks a submission shed by the service's
	// overload watermark (queue depth or task-slot pressure); the
	// Retry-After header carries the suggested wait.
	CodeOverloaded = "overloaded"
)

// ErrorInfo is the structured error payload.
type ErrorInfo struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// errorBody is the JSON error envelope. Message mirrors Error.Message
// for clients of the previous bare-string envelope; it is deprecated and
// will be dropped next version.
type errorBody struct {
	Error   ErrorInfo `json:"error"`
	Message string    `json:"message"`
}

// completedCache is the bounded (LRU + TTL) store of finished-job
// results, replacing the previous unbounded map: a long-lived server
// keeps registry records for every job but evicts bulky JobStats.
type completedCache struct {
	max     int
	ttl     time.Duration
	now     func() time.Time
	order   *list.List // front = most recently used
	entries map[string]*list.Element
}

type cacheEntry struct {
	id    string
	res   jobResult
	added time.Time
}

func newCompletedCache(max int, ttl time.Duration) *completedCache {
	return &completedCache{
		max:     max,
		ttl:     ttl,
		now:     time.Now,
		order:   list.New(),
		entries: make(map[string]*list.Element),
	}
}

// put inserts or refreshes an entry, evicting the least recently used
// entries beyond the size bound.
func (c *completedCache) put(id string, res jobResult) {
	if el, ok := c.entries[id]; ok {
		el.Value.(*cacheEntry).res = res
		el.Value.(*cacheEntry).added = c.now()
		c.order.MoveToFront(el)
		return
	}
	c.entries[id] = c.order.PushFront(&cacheEntry{id: id, res: res, added: c.now()})
	for c.max > 0 && c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).id)
	}
}

// get returns the cached result, expiring it when older than the TTL.
func (c *completedCache) get(id string) (jobResult, bool) {
	el, ok := c.entries[id]
	if !ok {
		return jobResult{}, false
	}
	ent := el.Value.(*cacheEntry)
	if c.ttl > 0 && c.now().Sub(ent.added) > c.ttl {
		c.order.Remove(el)
		delete(c.entries, id)
		return jobResult{}, false
	}
	c.order.MoveToFront(el)
	return ent.res, true
}

func (c *completedCache) len() int { return c.order.Len() }

// Server is the HTTP front end over a core.Service.
type Server struct {
	svc    *core.Service
	reg    *registry.Registry
	lib    *extractors.Library
	issuer *auth.Issuer // nil disables auth
	// tenants enforces per-tenant quotas and keeps usage accounting;
	// nil disables tenancy (every caller is the default tenant).
	tenants *tenant.Controller
	// cluster makes this server one node of a multi-node deployment:
	// submissions are placed by consistent hashing and requests for
	// jobs owned elsewhere answer 307 to the owner. Nil = standalone.
	cluster *cluster.Node
	// devTokens enables the POST /api/v1/token mint endpoint — dev mode
	// only, it hands out tokens to anyone who can reach the socket.
	devTokens bool

	obs     *obs.Observer
	obsHTTP *obs.CounterVec
	baseCtx context.Context

	mu        sync.Mutex // guards completed
	completed *completedCache

	// search integration (optional, via EnableSearch)
	idx        *index.Index
	dest       store.Store
	destPrefix string
}

// jobResult is what a job submitted here returned. Its entry is cached
// from the submission on, stats unset, so that between the job leaving the
// service's live table and its result landing here no status reads
// "finished, result evicted".
type jobResult struct {
	stats *core.JobStats
	err   error
}

// NewServer wires the REST API. issuer may be nil to disable auth —
// a deliberate dev-mode choice that is loudly logged, since an
// auth-less server treats every caller as the default tenant with
// every scope.
func NewServer(svc *core.Service, reg *registry.Registry, lib *extractors.Library, issuer *auth.Issuer) *Server {
	if issuer == nil {
		log.Printf("api: WARNING: no auth issuer configured — " +
			"authentication is DISABLED and every caller has full access " +
			"as the default tenant; pass -auth-key to xtract serve (or an " +
			"issuer to NewServer) to secure this API")
	}
	return &Server{
		svc:       svc,
		reg:       reg,
		lib:       lib,
		issuer:    issuer,
		baseCtx:   context.Background(),
		completed: newCompletedCache(256, time.Hour),
	}
}

// SetTenants attaches the tenancy controller: submissions go through
// admission control and GET /api/v1/tenants/{id}/usage serves its
// accounting.
func (s *Server) SetTenants(t *tenant.Controller) { s.tenants = t }

// SetCluster makes the server placement-aware: submissions hash to an
// owning node (307 when it isn't this one), job routes redirect to the
// live lease holder, GET /api/v1/cluster serves membership, and tenant
// usage aggregates across all members.
func (s *Server) SetCluster(n *cluster.Node) { s.cluster = n }

// EnableDevTokens turns on the POST /api/v1/token mint endpoint. Dev
// mode only: anyone who can reach the socket can mint tokens.
func (s *Server) EnableDevTokens() { s.devTokens = true }

// SetObserver attaches the observability layer: /metrics serves its
// registry, /jobs/{id}/events serves its tracer, and every route counts
// requests on xtract_http_requests_total.
func (s *Server) SetObserver(o *obs.Observer) {
	s.obs = o
	s.obsHTTP = o.Reg().CounterVec("xtract_http_requests_total",
		"API requests by route.", "route")
}

// SetBaseContext ties job lifetimes to the server's lifecycle: jobs
// started by POST /jobs are cancelled when ctx is, instead of leaking
// past shutdown on context.Background.
func (s *Server) SetBaseContext(ctx context.Context) { s.baseCtx = ctx }

// SetCompletedCacheLimits bounds the finished-job result cache. max <= 0
// means unlimited entries; ttl <= 0 disables expiry.
func (s *Server) SetCompletedCacheLimits(max int, ttl time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.completed.max = max
	s.completed.ttl = ttl
}

// EnableSearch attaches a search index fed from the validated-metadata
// destination store. destPrefix is the directory validated documents
// land in (the validation service's DestPrefix, usually "/metadata").
func (s *Server) EnableSearch(ix *index.Index, dest store.Store, destPrefix string) {
	s.idx = ix
	s.dest = dest
	s.destPrefix = destPrefix
}

// Handler returns the API route multiplexer.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern, scope string, h http.HandlerFunc) {
		// Resolve the route's request counter once at registration; the
		// fallback covers an observer attached after Handler() was built.
		counter := s.obsHTTP.With(pattern)
		counted := func(w http.ResponseWriter, r *http.Request) {
			if counter != nil {
				counter.Inc()
			} else {
				s.obsHTTP.With(pattern).Inc()
			}
			h(w, r)
		}
		if scope != "" {
			mux.HandleFunc(pattern, s.requireScope(scope, counted))
		} else {
			mux.HandleFunc(pattern, counted)
		}
	}
	// Job lifecycle and usage accounting require the extract scope;
	// read-only topology/introspection routes the crawl scope; search
	// rides the validation pipeline's scope. The token mint endpoint
	// does its own gating (dev mode), and /metrics is the scrape path.
	route("POST /api/v1/jobs", auth.ScopeExtract, s.handleSubmit)
	route("GET /api/v1/jobs", auth.ScopeExtract, s.handleJobList)
	route("GET /api/v1/jobs/{id}", auth.ScopeExtract, s.handleJobStatus)
	route("GET /api/v1/jobs/{id}/events", auth.ScopeExtract, s.handleJobEvents)
	route("DELETE /api/v1/jobs/{id}", auth.ScopeExtract, s.handleCancel)
	route("GET /api/v1/tenants/{id}/usage", auth.ScopeExtract, s.handleTenantUsage)
	route("GET /api/v1/sites", auth.ScopeCrawl, s.handleSites)
	route("GET /api/v1/extractors", auth.ScopeCrawl, s.handleExtractors)
	route("GET /api/v1/cache", auth.ScopeCrawl, s.handleCacheStats)
	route("GET /api/v1/recovery", auth.ScopeCrawl, s.handleRecovery)
	route("GET /api/v1/cluster", auth.ScopeCrawl, s.handleCluster)
	route("GET /api/v1/search", auth.ScopeValidate, s.handleSearch)
	route("POST /api/v1/index/refresh", auth.ScopeValidate, s.handleRefresh)
	route("POST /api/v1/token", "", s.handleMintToken)
	route("GET /metrics", "", s.handleMetrics) // scrape endpoint: no auth
	return mux
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.obs.Reg().WritePrometheus(w)
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if s.idx == nil {
		writeError(w, http.StatusNotImplemented, CodeNotImplemented, fmt.Errorf("api: search not enabled"))
		return
	}
	q := r.URL.Query().Get("q")
	if q == "" {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, fmt.Errorf("api: missing q parameter"))
		return
	}
	resp := SearchResponse{Query: q}
	for _, hit := range s.idx.Search(q) {
		resp.Hits = append(resp.Hits, SearchHit{DocID: hit.DocID, Score: hit.Score})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleRefresh(w http.ResponseWriter, _ *http.Request) {
	if s.idx == nil || s.dest == nil {
		writeError(w, http.StatusNotImplemented, CodeNotImplemented, fmt.Errorf("api: search not enabled"))
		return
	}
	n, err := s.idx.IngestStore(s.dest, s.destPrefix)
	if err != nil && n == 0 {
		writeError(w, http.StatusInternalServerError, CodeInternal, err)
		return
	}
	docs, terms := s.idx.Stats()
	writeJSON(w, http.StatusOK, RefreshResponse{Ingested: n, Docs: docs, Terms: terms})
}

// claimsKey carries the verified auth.Claims through the request
// context so handlers can derive the caller's tenant.
type claimsKeyType struct{}

var claimsKey claimsKeyType

// requireScope enforces bearer-token auth when an issuer is configured,
// mapping validation failures to machine-readable envelopes: expired
// tokens answer 401 "auth_expired" (the SDK's re-mint trigger), scope
// misses answer 403 "auth_scope", anything else 401 "unauthorized".
// Verified claims ride the request context for tenant derivation.
func (s *Server) requireScope(scope string, next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.issuer != nil {
			tok := strings.TrimPrefix(r.Header.Get("Authorization"), "Bearer ")
			claims, err := s.issuer.Require(tok, scope)
			if err != nil {
				switch {
				case errors.Is(err, auth.ErrExpired):
					writeError(w, http.StatusUnauthorized, CodeAuthExpired, err)
				case errors.Is(err, auth.ErrScope):
					writeError(w, http.StatusForbidden, CodeAuthScope, err)
				default:
					writeError(w, http.StatusUnauthorized, CodeUnauthorized, err)
				}
				return
			}
			r = r.WithContext(context.WithValue(r.Context(), claimsKey, claims))
		}
		next(w, r)
	}
}

// tenantOf derives the caller's tenant from the request's verified
// claims; with auth disabled every caller is the default tenant.
func tenantOf(r *http.Request) string {
	if claims, ok := r.Context().Value(claimsKey).(auth.Claims); ok {
		return tenant.FromIdentity(claims.Identity)
	}
	return tenant.Default
}

// redirectToNode answers 307 Temporary Redirect pointing the client at
// the owning node. 307 (not 302) so the method and body are preserved
// when the client replays the request.
func redirectToNode(w http.ResponseWriter, r *http.Request, addr string) {
	target := strings.TrimRight(addr, "/") + r.URL.RequestURI()
	http.Redirect(w, r, target, http.StatusTemporaryRedirect)
}

// clusterRedirect answers a 307 to the node that can serve jobID when
// that node is not this one, reporting whether it did. The live lease
// holder wins; with no live lease (terminal, or orphaned awaiting
// failover) the node that minted the ID is the best effort — it keeps
// terminal jobs reachable through any node after the lease is released.
// Unknown nodes fall through to a local lookup.
func (s *Server) clusterRedirect(w http.ResponseWriter, r *http.Request, jobID string) bool {
	if s.cluster == nil {
		return false
	}
	target := registry.MintingNode(jobID)
	if l, ok := s.cluster.Coordinator().Holder(jobID); ok {
		target = l.Node
	}
	if target == "" || target == s.cluster.ID() {
		return false
	}
	addr, ok := s.cluster.Coordinator().Addr(target)
	if !ok || addr == "" {
		return false
	}
	redirectToNode(w, r, addr)
	return true
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, code string, err error) {
	writeJSON(w, status, errorBody{
		Error:   ErrorInfo{Code: code, Message: err.Error()},
		Message: err.Error(),
	})
}

// placementKey derives the consistent-hash key that places a submission
// on a node: the tenant plus every repository's site and roots. The key
// is deterministic for a given request, so a client replaying a
// redirected submission hashes to the same owner it was sent to.
func placementKey(ten string, req JobRequest) string {
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

// repoSpecs resolves a request's repositories to the service's terms, or
// says with which error code the request is refused.
func (s *Server) repoSpecs(req JobRequest) (specs []core.RepoSpec, code string, err error) {
	if len(req.Repos) == 0 {
		return nil, CodeInvalidRequest, fmt.Errorf("api: no repositories")
	}
	for _, repo := range req.Repos {
		grouper, err := crawler.GrouperByName(repo.Grouper, s.lib)
		if err != nil {
			return nil, CodeUnknownGrouper, fmt.Errorf("api: %w", err)
		}
		if _, ok := s.svc.Site(repo.Site); !ok {
			return nil, CodeUnknownSite, fmt.Errorf("api: unknown site %q", repo.Site)
		}
		specs = append(specs, core.RepoSpec{
			SiteName:       repo.Site,
			Roots:          repo.Roots,
			Grouper:        grouper,
			GrouperName:    repo.Grouper,
			CrawlWorkers:   repo.CrawlWorkers,
			MaxFamilySize:  repo.MaxFamilySize,
			NoMinTransfers: repo.NoMinTransfer,
		})
	}
	return specs, "", nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, err)
		return
	}
	specs, code, err := s.repoSpecs(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, code, err)
		return
	}

	// Placement runs after validation (a malformed request should 400
	// here, not bounce between nodes) and before admission, so the rate
	// tokens and job-slot reservation are consumed on the node that will
	// actually run the job.
	ten := tenantOf(r)
	if s.cluster != nil {
		owner, addr, ok := s.cluster.Coordinator().Owner(placementKey(ten, req))
		if ok && owner != s.cluster.ID() && addr != "" {
			redirectToNode(w, r, addr)
			return
		}
	}

	// Overload shedding runs before admission: a service past its queue
	// or task-slot watermark refuses new work outright — 503 with a
	// Retry-After — rather than letting it pile onto an already deep
	// backlog. Shedding consumes none of the tenant's rate tokens.
	if retry, shed := s.svc.ShedCheck(); shed {
		retryLater(w, http.StatusServiceUnavailable, CodeOverloaded, retry,
			fmt.Errorf("api: service overloaded, retry after %s", retry))
		return
	}

	// Admission control runs after request validation — a 400 must never
	// consume the tenant's rate tokens or leak a job-slot reservation.
	// The reservation taken here is consumed by the pump's JobStarted.
	if err := s.tenants.AdmitJob(ten); err != nil {
		var qe *tenant.QuotaError
		if errors.As(err, &qe) {
			retryLater(w, http.StatusTooManyRequests, CodeTenantQuota, qe.RetryAfter, err)
			return
		}
		writeError(w, http.StatusInternalServerError, CodeInternal, err)
		return
	}

	// The job runs under the server's lifecycle context, not the request's:
	// it outlives this handler, and shutdown still reaches its pump.
	job, err := s.svc.Submit(s.baseCtx, specs, core.JobOptions{NoCache: req.NoCache, Tenant: ten})
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, err)
		return
	}
	s.cacheResult(job.ID, jobResult{})
	go func() {
		stats, err := job.Wait()
		s.cacheResult(job.ID, jobResult{stats: &stats, err: err})
	}()
	writeJSON(w, http.StatusAccepted, JobResponse{JobID: job.ID})
}

// retryLater answers a submission refused for now, with the Retry-After
// hint in whole seconds, at least one.
func retryLater(w http.ResponseWriter, status int, code string, after time.Duration, err error) {
	secs := int(after / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	writeError(w, status, code, err)
}

func (s *Server) cacheResult(id string, res jobResult) {
	s.mu.Lock()
	s.completed.put(id, res)
	s.mu.Unlock()
}

// callersJob resolves a job route's {id} to the caller's own job on this
// node, or answers — a redirect to the node that runs the job (a cancel
// must reach its pump), 404 if unknown, 403 if another tenant's — and reports false.
func (s *Server) callersJob(w http.ResponseWriter, r *http.Request) (rec registry.JobRecord, ok bool) {
	id := r.PathValue("id")
	if s.clusterRedirect(w, r, id) {
		return rec, false
	}
	rec, err := s.reg.Job(id)
	if err != nil {
		writeError(w, http.StatusNotFound, CodeNotFound, err)
		return rec, false
	}
	// Records predating the tenancy layer have no tenant and belong to the
	// default one. The 403 confirms nothing beyond the ID the caller sent.
	if tenantOf(r) != tenant.Normalize(rec.Tenant) {
		writeError(w, http.StatusForbidden, CodeTenantForbidden,
			fmt.Errorf("api: job %s is not owned by your tenant", id))
		return rec, false
	}
	return rec, true
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.callersJob(w, r)
	if !ok {
		return
	}
	id := rec.ID
	status := JobStatus{
		JobID:    id,
		State:    string(rec.State),
		Tenant:   tenant.Normalize(rec.Tenant),
		Crawled:  rec.GroupsCrawled,
		Done:     rec.GroupsDone,
		Degraded: rec.State == registry.JobDegraded,
		Record:   rec,
	}
	s.mu.Lock()
	res, cached := s.completed.get(id)
	s.mu.Unlock()
	if cached && res.stats != nil {
		status.Complete = true
		status.Stats = res.stats
		if res.err != nil {
			status.Err = res.err.Error()
		}
	} else if !cached && s.svc.Job(id) == nil && rec.State.Terminal() {
		// Finished long ago, or not submitted here (resumed, adopted): no
		// stats to show, but the registry record still proves completion.
		status.Complete = true
		status.Err = rec.Err
	}
	writeJSON(w, http.StatusOK, status)
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit, offset := 50, 0
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, CodeInvalidRequest, fmt.Errorf("api: bad limit %q", v))
			return
		}
		if n > 0 {
			limit = n
		}
	}
	if limit > 1000 {
		limit = 1000
	}
	if v := q.Get("offset"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, CodeInvalidRequest, fmt.Errorf("api: bad offset %q", v))
			return
		}
		offset = n
	}
	stateFilter := strings.ToUpper(q.Get("state"))

	// The listing is tenant-scoped: only the caller's jobs appear, and
	// Total counts matches within the tenant, not service-wide.
	ten := tenantOf(r)
	resp := JobListResponse{Jobs: []JobSummary{}}
	for _, rec := range s.reg.Jobs() {
		if tenant.Normalize(rec.Tenant) != ten {
			continue
		}
		if stateFilter != "" && string(rec.State) != stateFilter {
			continue
		}
		resp.Total++
		if resp.Total <= offset || len(resp.Jobs) >= limit {
			continue
		}
		resp.Jobs = append(resp.Jobs, JobSummary{
			JobID:         rec.ID,
			State:         string(rec.State),
			Tenant:        tenant.Normalize(rec.Tenant),
			Submitted:     rec.Submitted,
			Repositories:  rec.Repositories,
			GroupsCrawled: rec.GroupsCrawled,
			GroupsDone:    rec.GroupsDone,
			Recovered:     rec.Recovered,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.callersJob(w, r)
	if !ok {
		return
	}
	id := rec.ID
	events, dropped := s.obs.Tracer().Events(id)
	if events == nil {
		events = []obs.Event{}
	}
	writeJSON(w, http.StatusOK, JobEventsResponse{JobID: id, Events: events, Dropped: dropped})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.callersJob(w, r)
	if !ok {
		return
	}
	if s.svc.Cancel(rec.ID) {
		writeJSON(w, http.StatusAccepted, CancelResponse{JobID: rec.ID, State: "cancelling"})
		return
	}
	writeError(w, http.StatusConflict, CodeJobNotRunning,
		fmt.Errorf("api: job %s is %s, not running", rec.ID, rec.State))
}

// handleTenantUsage serves a tenant's cost accounting. A caller may only
// read its own tenant's usage; asking for another answers the same 403
// envelope as cross-tenant job access.
func (s *Server) handleTenantUsage(w http.ResponseWriter, r *http.Request) {
	id := tenant.Normalize(r.PathValue("id"))
	if id != tenantOf(r) {
		writeError(w, http.StatusForbidden, CodeTenantForbidden,
			fmt.Errorf("api: tenant %s is not your tenant", id))
		return
	}
	resp := TenantUsageResponse{Tenant: id}
	if s.tenants != nil {
		resp.Enabled = true
		if s.cluster != nil {
			// Cluster mode: usage is global — the sum over every live
			// member's controller — so quotas and billing read the same
			// totals no matter which node answers.
			resp.Global = true
			resp.Usage, _ = s.cluster.Coordinator().GlobalUsage(id)
		} else {
			resp.Usage, _ = s.tenants.UsageFor(id)
		}
		resp.Limits = s.tenants.LimitsFor(id)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleCluster serves membership as this node sees it: every known
// member, its liveness, and how many job leases it currently holds.
func (s *Server) handleCluster(w http.ResponseWriter, _ *http.Request) {
	if s.cluster == nil {
		writeJSON(w, http.StatusOK, ClusterResponse{})
		return
	}
	writeJSON(w, http.StatusOK, ClusterResponse{
		Enabled: true,
		Self:    s.cluster.ID(),
		Members: s.cluster.Coordinator().Members(),
	})
}

// handleMintToken is the dev-mode token mint: enabled only via
// EnableDevTokens and only when an issuer exists. It exists so the
// secured path is exercisable from the CLI without a real identity
// provider; production deployments must keep it off.
func (s *Server) handleMintToken(w http.ResponseWriter, r *http.Request) {
	if !s.devTokens || s.issuer == nil {
		writeError(w, http.StatusNotImplemented, CodeNotImplemented,
			fmt.Errorf("api: token minting not enabled (serve with -dev-tokens and -auth-key)"))
		return
	}
	var req TokenRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, err)
		return
	}
	if req.Identity == "" {
		writeError(w, http.StatusBadRequest, CodeInvalidRequest, fmt.Errorf("api: missing identity"))
		return
	}
	scopes := req.Scopes
	if len(scopes) == 0 {
		scopes = []string{auth.ScopeCrawl, auth.ScopeExtract, auth.ScopeValidate}
	}
	ttl := time.Duration(req.TTLSeconds) * time.Second
	if ttl <= 0 {
		ttl = time.Hour
	}
	writeJSON(w, http.StatusOK, TokenResponse{
		Token:  s.issuer.Issue(req.Identity, scopes, ttl),
		Tenant: tenant.FromIdentity(req.Identity),
	})
}

func (s *Server) handleSites(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, SitesResponse{Sites: s.svc.Sites()})
}

func (s *Server) handleExtractors(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, ExtractorsResponse{Extractors: s.lib.Names()})
}

func (s *Server) handleCacheStats(w http.ResponseWriter, _ *http.Request) {
	stats, ok := s.svc.CacheStats()
	writeJSON(w, http.StatusOK, CacheStatsResponse{Enabled: ok, Stats: stats})
}

func (s *Server) handleRecovery(w http.ResponseWriter, _ *http.Request) {
	status, _ := s.svc.LastRecovery()
	writeJSON(w, http.StatusOK, RecoveryResponse{Enabled: s.svc.JournalEnabled(), Status: status})
}

// Package sdk provides XtractClient, the typed HTTP client mirroring the
// paper's xtract_sdk (Listing 2): authenticate, submit extraction jobs,
// and poll crawl/extraction status.
package sdk

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"xtract/internal/api"
	"xtract/internal/clock"
	"xtract/internal/obs"
)

// APIError is a structured error returned by the service, carrying the
// machine-readable code from the error envelope (api.Code* constants).
type APIError struct {
	Method string
	Path   string
	Status int
	Code   string
	Msg    string
	// RetryAfter is the server's Retry-After hint on quota refusals
	// (zero when absent).
	RetryAfter time.Duration
}

// Error implements the error interface.
func (e *APIError) Error() string {
	if e.Msg == "" {
		return fmt.Sprintf("sdk: %s %s: HTTP %d", e.Method, e.Path, e.Status)
	}
	if e.Code == "" {
		return fmt.Sprintf("sdk: %s %s: %s", e.Method, e.Path, e.Msg)
	}
	return fmt.Sprintf("sdk: %s %s: %s: %s", e.Method, e.Path, e.Code, e.Msg)
}

// IsAuthExpired reports whether the error is the expired-token envelope
// (api.CodeAuthExpired) — the signal to re-mint and retry.
func (e *APIError) IsAuthExpired() bool { return e != nil && e.Code == api.CodeAuthExpired }

// IsScope reports whether the error is the missing-scope envelope.
func (e *APIError) IsScope() bool { return e != nil && e.Code == api.CodeAuthScope }

// IsQuota reports whether the error is a tenant quota refusal; the
// RetryAfter field carries the server's backoff hint.
func (e *APIError) IsQuota() bool { return e != nil && e.Code == api.CodeTenantQuota }

// IsForbidden reports whether the error is the cross-tenant 403.
func (e *APIError) IsForbidden() bool { return e != nil && e.Code == api.CodeTenantForbidden }

// IsOverloaded reports whether the error is the overload-shed 503: the
// service refused the submission at its queue/task-slot watermark. The
// RetryAfter field carries the server's backoff hint, exactly as it
// does for quota refusals.
func (e *APIError) IsOverloaded() bool { return e != nil && e.Code == api.CodeOverloaded }

// parseAPIError decodes an error response body, accepting the structured
// envelope {"error": {"code", "message"}}, its deprecated "message"
// mirror, and the legacy bare-string {"error": "..."} form produced by
// older servers. hdr, when non-nil, supplies the Retry-After hint.
func parseAPIError(method, path string, status int, hdr http.Header, data []byte) *APIError {
	e := &APIError{Method: method, Path: path, Status: status}
	if hdr != nil {
		if secs, err := strconv.Atoi(hdr.Get("Retry-After")); err == nil && secs > 0 {
			e.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	var structured struct {
		Error   api.ErrorInfo `json:"error"`
		Message string        `json:"message"`
	}
	if json.Unmarshal(data, &structured) == nil {
		e.Code = structured.Error.Code
		e.Msg = structured.Error.Message
		if e.Msg == "" {
			e.Msg = structured.Message
		}
		if e.Msg != "" {
			return e
		}
	}
	var legacy struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &legacy) == nil {
		e.Msg = legacy.Error
	}
	return e
}

// TokenSource mints a fresh bearer token — the client calls it once at
// first use when no static token is set, and again whenever the service
// answers auth_expired.
type TokenSource func() (string, error)

// XtractClient talks to an Xtract REST service.
type XtractClient struct {
	// BaseURL is the service root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Token is the bearer token attached to every request ("" for
	// services running without auth).
	Token string
	// Source, when set, re-mints Token automatically on auth_expired
	// responses (see WithTokenSource).
	Source TokenSource
	// HTTPClient may be overridden for testing; defaults to a client
	// with a 30 s timeout. Requests go through a copy of it with
	// redirects turned off (doOnce follows them), made once per
	// HTTPClient value.
	HTTPClient *http.Client
	// Clock drives WaitJob's polling; nil selects the wall clock.
	// Injecting a fake clock lets tests step through poll cycles.
	Clock clock.Clock

	// tokenMu guards Token refreshes against concurrent requests.
	tokenMu sync.Mutex
	// direct is HTTPClient's copy with redirects turned off (see doOnce).
	direct atomic.Pointer[directClient]
}

// directClient is the copy of from that returns redirects to its caller.
type directClient struct {
	from, hc *http.Client
}

// Option configures a client at construction.
type Option func(*XtractClient)

// WithToken sets a static bearer token (same as New's token argument;
// provided for symmetry with WithTokenSource).
func WithToken(token string) Option {
	return func(c *XtractClient) { c.Token = token }
}

// WithTokenSource installs a token minter: the client fetches a token
// from it on first use and re-mints once per request when the service
// answers auth_expired, retrying the request with the fresh token.
func WithTokenSource(src TokenSource) Option {
	return func(c *XtractClient) { c.Source = src }
}

// WithHTTPClient overrides the transport (testing, custom timeouts).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *XtractClient) { c.HTTPClient = hc }
}

// clk returns the client's clock, defaulting to the wall clock.
func (c *XtractClient) clk() clock.Clock {
	if c.Clock != nil {
		return c.Clock
	}
	return clock.NewReal()
}

// New returns a client for the service at baseURL.
func New(baseURL, token string, opts ...Option) *XtractClient {
	c := &XtractClient{
		BaseURL:    baseURL,
		Token:      token,
		HTTPClient: &http.Client{Timeout: 30 * time.Second},
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// token returns the current bearer token, minting one from the source
// when none is set yet.
func (c *XtractClient) token() (string, error) {
	c.tokenMu.Lock()
	defer c.tokenMu.Unlock()
	if c.Token == "" && c.Source != nil {
		tok, err := c.Source()
		if err != nil {
			return "", fmt.Errorf("sdk: token source: %w", err)
		}
		c.Token = tok
	}
	return c.Token, nil
}

// remint replaces the token after an auth_expired response. stale is
// the token the failed request used: if another goroutine already
// refreshed it, the fresh token is reused instead of minting again.
func (c *XtractClient) remint(stale string) (string, error) {
	c.tokenMu.Lock()
	defer c.tokenMu.Unlock()
	if c.Token != stale && c.Token != "" {
		return c.Token, nil
	}
	tok, err := c.Source()
	if err != nil {
		return "", fmt.Errorf("sdk: token source: %w", err)
	}
	c.Token = tok
	return tok, nil
}

// do issues a request and decodes the JSON response into out. With a
// token source configured, an auth_expired response triggers one
// re-mint and one retry.
func (c *XtractClient) do(method, path string, body, out interface{}) error {
	tok, err := c.token()
	if err != nil {
		return err
	}
	err = c.doOnce(method, path, tok, body, out)
	if c.Source == nil {
		return err
	}
	var ae *APIError
	if !errors.As(err, &ae) || !ae.IsAuthExpired() {
		return err
	}
	fresh, merr := c.remint(tok)
	if merr != nil {
		return merr
	}
	return c.doOnce(method, path, fresh, body, out)
}

// maxRedirectHops bounds how many 307/308 redirects a single request
// follows before giving up — enough for any sane cluster topology,
// small enough to cut a redirect loop short.
const maxRedirectHops = 5

// directHTTP returns HTTPClient with redirects disabled, made on the
// first request through each HTTPClient value.
func (c *XtractClient) directHTTP() *http.Client {
	if d := c.direct.Load(); d != nil && d.from == c.HTTPClient {
		return d.hc
	}
	hc := *c.HTTPClient
	hc.CheckRedirect = func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}
	c.direct.Store(&directClient{from: c.HTTPClient, hc: &hc})
	return &hc
}

// doOnce issues one logical request with the given token, following
// 307/308 redirects itself. Go's http.Client strips Authorization when
// a redirect crosses hosts, but a cluster node's 307 points at a
// sibling that requires the same bearer token — so redirects are
// disabled on a copy of the transport and replayed manually with the
// token (and body) re-attached.
func (c *XtractClient) doOnce(method, path, token string, body, out interface{}) error {
	var payload []byte
	if body != nil {
		var err error
		payload, err = json.Marshal(body)
		if err != nil {
			return err
		}
	}
	hc := c.directHTTP()
	url := c.BaseURL + path
	for hop := 0; ; hop++ {
		var reader io.Reader
		if body != nil {
			reader = bytes.NewReader(payload)
		}
		req, err := http.NewRequest(method, url, reader)
		if err != nil {
			return err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		if token != "" {
			req.Header.Set("Authorization", "Bearer "+token)
		}
		resp, err := hc.Do(req)
		if err != nil {
			return err
		}
		if resp.StatusCode == http.StatusTemporaryRedirect ||
			resp.StatusCode == http.StatusPermanentRedirect {
			loc := resp.Header.Get("Location")
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if loc == "" {
				return fmt.Errorf("sdk: %s %s: redirect without Location", method, path)
			}
			if hop+1 >= maxRedirectHops {
				return fmt.Errorf("sdk: %s %s: stopped after %d redirects", method, path, hop+1)
			}
			u, err := resp.Request.URL.Parse(loc)
			if err != nil {
				return fmt.Errorf("sdk: %s %s: bad redirect %q: %w", method, path, loc, err)
			}
			url = u.String()
			continue
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if resp.StatusCode >= 400 {
			return parseAPIError(method, path, resp.StatusCode, resp.Header, data)
		}
		if out == nil {
			return nil
		}
		return json.Unmarshal(data, out)
	}
}

// Submit starts an extraction job and returns its ID.
func (c *XtractClient) Submit(req api.JobRequest) (string, error) {
	var resp api.JobResponse
	if err := c.do(http.MethodPost, "/api/v1/jobs", req, &resp); err != nil {
		return "", err
	}
	return resp.JobID, nil
}

// JobStatus polls a job.
func (c *XtractClient) JobStatus(jobID string) (api.JobStatus, error) {
	var resp api.JobStatus
	err := c.do(http.MethodGet, "/api/v1/jobs/"+jobID, nil, &resp)
	return resp, err
}

// GetCrawlStatus reports crawl progress for a job (Listing 2's
// get_crawl_status).
func (c *XtractClient) GetCrawlStatus(jobID string) (int64, error) {
	st, err := c.JobStatus(jobID)
	if err != nil {
		return 0, err
	}
	return st.Crawled, nil
}

// GetExtractStatus reports extraction progress for a job (Listing 2's
// get_extract_status).
func (c *XtractClient) GetExtractStatus(jobID string) (int64, error) {
	st, err := c.JobStatus(jobID)
	if err != nil {
		return 0, err
	}
	return st.Done, nil
}

// WaitJob polls until the job completes or the timeout elapses.
func (c *XtractClient) WaitJob(jobID string, poll, timeout time.Duration) (api.JobStatus, error) {
	clk := c.clk()
	deadline := clk.Now().Add(timeout)
	for {
		st, err := c.JobStatus(jobID)
		if err != nil {
			return api.JobStatus{}, err
		}
		if st.Complete {
			return st, nil
		}
		if clk.Now().After(deadline) {
			return st, fmt.Errorf("sdk: job %s did not complete within %v", jobID, timeout)
		}
		clk.Sleep(poll)
	}
}

// ListJobs pages through the service's job records. state filters by job
// state ("" for all); limit and offset paginate (0 for server defaults).
func (c *XtractClient) ListJobs(state string, limit, offset int) (api.JobListResponse, error) {
	q := url.Values{}
	if state != "" {
		q.Set("state", state)
	}
	if limit > 0 {
		q.Set("limit", fmt.Sprint(limit))
	}
	if offset > 0 {
		q.Set("offset", fmt.Sprint(offset))
	}
	path := "/api/v1/jobs"
	if enc := q.Encode(); enc != "" {
		path += "?" + enc
	}
	var resp api.JobListResponse
	err := c.do(http.MethodGet, path, nil, &resp)
	return resp, err
}

// CancelJob asks the service to cancel a running job. The job winds down
// asynchronously; poll JobStatus for the terminal CANCELLED state.
func (c *XtractClient) CancelJob(jobID string) error {
	return c.do(http.MethodDelete, "/api/v1/jobs/"+jobID, nil, nil)
}

// JobEvents fetches a job's event trace: the ordered crawl → dispatch →
// completion timeline, plus how many early events the bounded ring
// buffer dropped.
func (c *XtractClient) JobEvents(jobID string) ([]obs.Event, int64, error) {
	var resp api.JobEventsResponse
	if err := c.do(http.MethodGet, "/api/v1/jobs/"+jobID+"/events", nil, &resp); err != nil {
		return nil, 0, err
	}
	return resp.Events, resp.Dropped, nil
}

// Metrics fetches the service's Prometheus text exposition.
func (c *XtractClient) Metrics() (string, error) {
	req, err := http.NewRequest(http.MethodGet, c.BaseURL+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.HTTPClient.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode >= 400 {
		return "", parseAPIError(http.MethodGet, "/metrics", resp.StatusCode, resp.Header, data)
	}
	return string(data), nil
}

// TenantUsage fetches a tenant's cost accounting (tasks dispatched,
// steps, bytes staged, extractor-seconds, cache hits). A caller may
// only read its own tenant's usage.
func (c *XtractClient) TenantUsage(tenantID string) (api.TenantUsageResponse, error) {
	var resp api.TenantUsageResponse
	err := c.do(http.MethodGet, "/api/v1/tenants/"+url.PathEscape(tenantID)+"/usage", nil, &resp)
	return resp, err
}

// Cluster reports the serving node's cluster membership and per-member
// lease counts. Enabled is false on single-node deployments.
func (c *XtractClient) Cluster() (api.ClusterResponse, error) {
	var resp api.ClusterResponse
	err := c.do(http.MethodGet, "/api/v1/cluster", nil, &resp)
	return resp, err
}

// MintToken asks the dev-mode mint endpoint for a bearer token. It
// fails with not_implemented unless the server runs with dev tokens
// enabled.
func (c *XtractClient) MintToken(identity string, scopes []string, ttl time.Duration) (api.TokenResponse, error) {
	var resp api.TokenResponse
	err := c.do(http.MethodPost, "/api/v1/token", api.TokenRequest{
		Identity:   identity,
		Scopes:     scopes,
		TTLSeconds: int(ttl / time.Second),
	}, &resp)
	return resp, err
}

// DevTokenSource returns a TokenSource minting tokens for identity from
// the service's dev-mode mint endpoint — pair with WithTokenSource for
// a client that bootstraps and refreshes its own auth against a dev
// server.
func DevTokenSource(baseURL, identity string, scopes []string, ttl time.Duration) TokenSource {
	mint := New(baseURL, "")
	return func() (string, error) {
		resp, err := mint.MintToken(identity, scopes, ttl)
		if err != nil {
			return "", err
		}
		return resp.Token, nil
	}
}

// Sites lists the service's registered sites.
func (c *XtractClient) Sites() ([]string, error) {
	var resp api.SitesResponse
	err := c.do(http.MethodGet, "/api/v1/sites", nil, &resp)
	return resp.Sites, err
}

// Extractors lists the service's registered extractors.
func (c *XtractClient) Extractors() ([]string, error) {
	var resp api.ExtractorsResponse
	err := c.do(http.MethodGet, "/api/v1/extractors", nil, &resp)
	return resp.Extractors, err
}

// CacheStats fetches the extraction result cache statistics. Enabled is
// false when the service runs without a cache.
func (c *XtractClient) CacheStats() (api.CacheStatsResponse, error) {
	var resp api.CacheStatsResponse
	err := c.do(http.MethodGet, "/api/v1/cache", nil, &resp)
	return resp, err
}

// Recovery fetches the service's journal recovery status: whether a
// durable journal is configured and what the startup recovery pass
// restored (jobs resumed, terminal outcomes replayed, cache entries
// reconciled).
func (c *XtractClient) Recovery() (api.RecoveryResponse, error) {
	var resp api.RecoveryResponse
	err := c.do(http.MethodGet, "/api/v1/recovery", nil, &resp)
	return resp, err
}

// Search queries the service's metadata index.
func (c *XtractClient) Search(query string) ([]api.SearchHit, error) {
	var resp api.SearchResponse
	err := c.do(http.MethodGet, "/api/v1/search?q="+url.QueryEscape(query), nil, &resp)
	return resp.Hits, err
}

// RefreshIndex re-ingests validated metadata into the service's index
// and returns (documents ingested, total docs, distinct terms).
func (c *XtractClient) RefreshIndex() (api.RefreshResponse, error) {
	var resp api.RefreshResponse
	err := c.do(http.MethodPost, "/api/v1/index/refresh", nil, &resp)
	return resp, err
}

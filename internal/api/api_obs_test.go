package api_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"xtract/internal/api"
	"xtract/internal/obs"
	"xtract/internal/sdk"
	"xtract/internal/store"
)

// runQuickJob submits a single-repo job against /data and waits for it.
func runQuickJob(t *testing.T, client *sdk.XtractClient) string {
	t.Helper()
	jobID, err := client.Submit(api.JobRequest{Repos: []api.RepoRequest{{
		Site: "local", Roots: []string{"/data"}, Grouper: "single",
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.WaitJob(jobID, 5*time.Millisecond, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	return jobID
}

func TestMetricsEndpoint(t *testing.T) {
	client, _, done := newTestServer(t, false)
	defer done()
	runQuickJob(t, client)

	text, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE xtract_jobs_total counter",
		`xtract_jobs_total{state="COMPLETE"} 1`,
		"xtract_families_done_total",
		"xtract_groups_processed_total",
		"xtract_crawl_groups_formed_total",
		"xtract_faas_queue_depth",
		"# TYPE xtract_faas_cold_start_seconds histogram",
		"xtract_faas_task_latency_seconds_bucket",
		"xtract_transfer_bytes_total",
		"xtract_transfer_fetch_bytes_total",
		"xtract_validate_pending 0",
		`xtract_http_requests_total{route="POST /api/v1/jobs"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// The quickstart job actually ran: work counters must be non-zero.
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "xtract_families_done_total ") &&
			strings.HasSuffix(line, " 0") {
			t.Errorf("families_done still zero after a finished job: %s", line)
		}
	}
}

func TestJobEventsEndpoint(t *testing.T) {
	client, _, done := newTestServer(t, false)
	defer done()
	jobID := runQuickJob(t, client)

	events, dropped, err := client.JobEvents(jobID)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no events for finished job")
	}
	if dropped != 0 {
		t.Fatalf("dropped = %d for a small job", dropped)
	}
	first := make(map[string]int)
	for i, ev := range events {
		if i > 0 && events[i-1].Seq >= ev.Seq {
			t.Fatalf("events out of order at %d: %d then %d", i, events[i-1].Seq, ev.Seq)
		}
		if _, ok := first[ev.Type]; !ok {
			first[ev.Type] = i
		}
	}
	for _, typ := range []string{
		obs.EvJobSubmitted, obs.EvCrawlStarted, obs.EvFamilyEnqueued,
		obs.EvBatchDispatched, obs.EvTaskCompleted, obs.EvFamilyDone,
		obs.EvJobCompleted,
	} {
		if _, ok := first[typ]; !ok {
			t.Errorf("trace missing %s event", typ)
		}
	}
	if !(first[obs.EvCrawlStarted] < first[obs.EvBatchDispatched] &&
		first[obs.EvBatchDispatched] < first[obs.EvTaskCompleted] &&
		first[obs.EvTaskCompleted] < first[obs.EvJobCompleted]) {
		t.Errorf("trace not ordered crawl -> dispatch -> completion: %v", first)
	}
	// Events are written as typed attributes and rendered when read: the
	// JSON carries them as attrs, and detail still reads as k=v text.
	for typ, key := range map[string]string{
		obs.EvBatchDispatched: "task", obs.EvTaskCompleted: "task", obs.EvFamilyDone: "family",
	} {
		ev := events[first[typ]]
		if s, _ := ev.Attrs[key].(string); s == "" || !strings.Contains(ev.Detail, key+"="+s) {
			t.Errorf("%s: attrs %v, detail %q; want %s in both", typ, ev.Attrs, ev.Detail, key)
		}
	}

	// Unknown jobs 404 with a machine-readable code.
	if _, _, err := client.JobEvents("job-999"); err == nil {
		t.Fatal("events for unknown job succeeded")
	} else {
		var apiErr *sdk.APIError
		if !errors.As(err, &apiErr) || apiErr.Code != api.CodeNotFound || apiErr.Status != 404 {
			t.Fatalf("err = %#v", err)
		}
	}
}

// syncBuffer is a process log the test reads while the service writes it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRejectedDocumentIsReported: a document the destination refuses is
// not silent. The job's trace names the family, the stage and the cause,
// and the process log has one record per rejected document. It swaps
// slog's default logger, so it does not run in parallel.
func TestRejectedDocumentIsReported(t *testing.T) {
	var logged syncBuffer
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewJSONHandler(&logged, nil)))
	t.Cleanup(func() { slog.SetDefault(prev) })
	client, _, deps, done := newTestServerDeps(t, false, nil)
	defer done()
	// A file where the documents' directory belongs: every write fails.
	if err := deps.Dest.Write("/metadata", []byte("in the way")); err != nil {
		t.Fatal(err)
	}
	jobID := runQuickJob(t, client)
	st, err := client.JobStatus(jobID)
	if err != nil || st.Stats == nil || st.Stats.FamiliesDone == 0 {
		t.Fatalf("status = %+v, %v", st, err)
	}

	// Validation runs behind the job: wait for every family's verdict.
	var rejected []obs.Event
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		events, _, err := client.JobEvents(jobID)
		if err != nil {
			t.Fatal(err)
		}
		rejected = rejected[:0]
		for _, ev := range events {
			if ev.Type == obs.EvFamilyRejected {
				rejected = append(rejected, ev)
			}
		}
		if int64(len(rejected)) >= st.Stats.FamiliesDone || time.Now().After(deadline) {
			break
		}
	}
	if int64(len(rejected)) != st.Stats.FamiliesDone {
		t.Fatalf("%d family_rejected events for %d families", len(rejected), st.Stats.FamiliesDone)
	}
	for _, ev := range rejected {
		if ev.Attrs["family"] == "" || ev.Attrs["stage"] != "write" ||
			!strings.Contains(fmt.Sprint(ev.Attrs["cause"]), store.ErrNotDir.Error()) {
			t.Fatalf("family_rejected attrs = %v, want a family, stage write and the store's error", ev.Attrs)
		}
	}

	var records int
	for _, line := range strings.Split(strings.TrimSpace(logged.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("process log line %q: %v", line, err)
		}
		if rec["msg"] == obs.EvFamilyRejected {
			if rec["level"] != "WARN" || rec["job"] != jobID || rec["stage"] != "write" {
				t.Fatalf("process log record = %v", rec)
			}
			records++
		}
	}
	if records != len(rejected) {
		t.Fatalf("%d family_rejected records in the process log, want %d", records, len(rejected))
	}
}

func TestJobListEndpoint(t *testing.T) {
	client, _, done := newTestServer(t, false)
	defer done()
	for i := 0; i < 3; i++ {
		runQuickJob(t, client)
	}

	all, err := client.ListJobs("", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if all.Total != 3 || len(all.Jobs) != 3 {
		t.Fatalf("list = %d jobs, total %d", len(all.Jobs), all.Total)
	}
	for i := 1; i < len(all.Jobs); i++ {
		if all.Jobs[i-1].Submitted.After(all.Jobs[i].Submitted) {
			t.Fatal("jobs not sorted by submission time")
		}
	}

	// State filter is case-insensitive.
	complete, err := client.ListJobs("complete", 0, 0)
	if err != nil || complete.Total != 3 {
		t.Fatalf("complete = %+v, %v", complete, err)
	}
	none, err := client.ListJobs("EXTRACTING", 0, 0)
	if err != nil || none.Total != 0 || len(none.Jobs) != 0 {
		t.Fatalf("extracting = %+v, %v", none, err)
	}

	// Pagination: Total reflects the filtered set, Jobs the page.
	page, err := client.ListJobs("", 2, 0)
	if err != nil || page.Total != 3 || len(page.Jobs) != 2 {
		t.Fatalf("page1 = %+v, %v", page, err)
	}
	page2, err := client.ListJobs("", 2, 2)
	if err != nil || page2.Total != 3 || len(page2.Jobs) != 1 {
		t.Fatalf("page2 = %+v, %v", page2, err)
	}
	if page.Jobs[0].JobID == page2.Jobs[0].JobID {
		t.Fatal("offset did not advance")
	}

	// Bad pagination parameters produce invalid_request (raw request: the
	// SDK itself refuses to send nonsense).
	resp, err := http.Get(client.BaseURL + "/api/v1/jobs?limit=abc")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var envelope struct {
		Error api.ErrorInfo `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 400 || envelope.Error.Code != api.CodeInvalidRequest {
		t.Fatalf("status = %d, code = %q", resp.StatusCode, envelope.Error.Code)
	}
}

// slowStore delays directory listings so a job stays cancellable.
type slowStore struct {
	store.Store
	delay time.Duration
}

func (s *slowStore) List(dir string) ([]store.FileInfo, error) {
	time.Sleep(s.delay)
	return s.Store.List(dir)
}

func TestCancelJob(t *testing.T) {
	client, _, deps, done := newTestServerDeps(t, false, func(s store.Store) store.Store {
		return &slowStore{Store: s, delay: 30 * time.Millisecond}
	})
	defer done()
	// A deep tree keeps the crawl busy long enough to cancel mid-flight.
	for _, p := range []string{"/data/d1/x.txt", "/data/d2/y.txt", "/data/d3/z.txt",
		"/data/d1/e1/a.txt", "/data/d2/e2/b.txt", "/data/d3/e3/c.txt"} {
		if err := deps.Store.Write(p, []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}

	jobID, err := client.Submit(api.JobRequest{Repos: []api.RepoRequest{{
		Site: "local", Roots: []string{"/data"}, Grouper: "single", CrawlWorkers: 1,
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.CancelJob(jobID); err != nil {
		t.Fatal(err)
	}
	st, err := client.WaitJob(jobID, 5*time.Millisecond, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "CANCELLED" {
		t.Fatalf("state = %s, want CANCELLED", st.State)
	}
	if st.Err == "" {
		t.Fatal("cancelled job reports no error")
	}

	// Cancelling a finished job is a conflict with a machine-readable code.
	err = client.CancelJob(jobID)
	var apiErr *sdk.APIError
	if err == nil || !errors.As(err, &apiErr) ||
		apiErr.Code != api.CodeJobNotRunning || apiErr.Status != 409 {
		t.Fatalf("err = %#v", err)
	}
	// Cancelling an unknown job is a 404.
	err = client.CancelJob("job-999")
	if err == nil || !errors.As(err, &apiErr) || apiErr.Code != api.CodeNotFound {
		t.Fatalf("err = %#v", err)
	}
}

func TestErrorEnvelopeCodes(t *testing.T) {
	client, _, done := newTestServer(t, false)
	defer done()
	var apiErr *sdk.APIError

	_, err := client.JobStatus("job-999")
	if err == nil || !errors.As(err, &apiErr) || apiErr.Code != api.CodeNotFound {
		t.Fatalf("status err = %#v", err)
	}
	_, err = client.Submit(api.JobRequest{Repos: []api.RepoRequest{{Site: "nope"}}})
	if err == nil || !errors.As(err, &apiErr) || apiErr.Code != api.CodeUnknownSite {
		t.Fatalf("site err = %#v", err)
	}
	_, err = client.Submit(api.JobRequest{Repos: []api.RepoRequest{{Site: "local", Grouper: "bogus"}}})
	if err == nil || !errors.As(err, &apiErr) || apiErr.Code != api.CodeUnknownGrouper {
		t.Fatalf("grouper err = %#v", err)
	}
	_, err = client.Submit(api.JobRequest{})
	if err == nil || !errors.As(err, &apiErr) || apiErr.Code != api.CodeInvalidRequest {
		t.Fatalf("empty err = %#v", err)
	}
}

// Every route counts its requests, those auth refuses included.
func TestRefusedRequestsAreCounted(t *testing.T) {
	client, _, done := newTestServer(t, true)
	defer done()
	resp, err := http.Get(client.BaseURL + "/api/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated GET /api/v1/jobs = %d, want 401", resp.StatusCode)
	}
	text, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if v := metricValue(t, text, `xtract_http_requests_total{route="GET /api/v1/jobs"}`); v != 1 {
		t.Fatalf("GET /api/v1/jobs counted %v requests, want 1", v)
	}
}

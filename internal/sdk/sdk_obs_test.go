package sdk

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"xtract/internal/api"
	"xtract/internal/obs"
)

// errorServer answers every request with the given status and body.
func errorServer(t *testing.T, status int, body string) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		_, _ = w.Write([]byte(body))
	}))
}

func TestParsesStructuredErrorEnvelope(t *testing.T) {
	ts := errorServer(t, 404,
		`{"error":{"code":"not_found","message":"registry: not found: job x"},"message":"registry: not found: job x"}`)
	defer ts.Close()
	_, err := New(ts.URL, "").JobStatus("x")
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %#v", err)
	}
	if apiErr.Code != api.CodeNotFound || apiErr.Status != 404 ||
		!strings.Contains(apiErr.Msg, "not found") {
		t.Fatalf("apiErr = %#v", apiErr)
	}
	if !strings.Contains(err.Error(), "not_found") {
		t.Fatalf("Error() = %q", err.Error())
	}
}

func TestParsesLegacyStringError(t *testing.T) {
	// Pre-v1.1 servers sent the error as a bare string.
	ts := errorServer(t, 400, `{"error":"api: no repositories"}`)
	defer ts.Close()
	_, err := New(ts.URL, "").Submit(api.JobRequest{})
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %#v", err)
	}
	if apiErr.Code != "" || !strings.Contains(apiErr.Msg, "no repositories") {
		t.Fatalf("apiErr = %#v", apiErr)
	}
}

func TestParsesDeprecatedMessageMirror(t *testing.T) {
	// Envelope with only the top-level message string populated.
	ts := errorServer(t, 500, `{"message":"boom"}`)
	defer ts.Close()
	_, err := New(ts.URL, "").Sites()
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Msg != "boom" {
		t.Fatalf("err = %#v", err)
	}
}

func TestUnparseableErrorFallsBackToStatus(t *testing.T) {
	ts := errorServer(t, 502, "bad gateway")
	defer ts.Close()
	_, err := New(ts.URL, "").Sites()
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != 502 {
		t.Fatalf("err = %#v", err)
	}
	if !strings.Contains(err.Error(), "HTTP 502") {
		t.Fatalf("Error() = %q", err.Error())
	}
}

func TestListJobsAndEventsClient(t *testing.T) {
	ts := canned(t, map[string]string{
		"/api/v1/jobs": `{"jobs":[{"job_id":"job-1","state":"COMPLETE"}],"total":5}`,
		"/api/v1/jobs/job-1/events": `{"job_id":"job-1","events":[` +
			`{"seq":1,"type":"job_submitted","detail":"repositories=[local:/data]","attrs":{"repositories":"[local:/data]"}},` +
			`{"seq":2,"type":"batch_dispatched","detail":"task=t-1 steps=2","attrs":{"task":"t-1","steps":2}},` +
			`{"seq":3,"type":"task_completed","detail":"task=t-1","attrs":{"task":"t-1"}},` +
			`{"seq":4,"type":"family_done","detail":"family=f steps=2","attrs":{"family":"f","steps":2}},` +
			`{"seq":5,"type":"job_completed"}],"dropped":3}`,
	}, "")
	defer ts.Close()
	c := New(ts.URL, "")

	list, err := c.ListJobs("COMPLETE", 10, 20)
	if err != nil || list.Total != 5 || len(list.Jobs) != 1 || list.Jobs[0].JobID != "job-1" {
		t.Fatalf("list = %+v, %v", list, err)
	}
	events, dropped, err := c.JobEvents("job-1")
	if err != nil || dropped != 3 || len(events) != 5 {
		t.Fatalf("events = %+v, dropped %d, %v", events, dropped, err)
	}
	if events[0].Type != obs.EvJobSubmitted || events[4].Type != obs.EvJobCompleted || events[4].Attrs != nil {
		t.Fatalf("events = %+v", events)
	}
	// Attributes arrive typed as JSON has them, beside the rendered detail.
	for i, key := range map[int]string{1: "task", 2: "task", 3: "family"} {
		if ev := events[i]; ev.Detail == "" || ev.Attrs[key] == nil {
			t.Fatalf("%s: detail %q, attrs %v; want both, with %s", ev.Type, ev.Detail, ev.Attrs, key)
		}
	}
	if events[1].Attrs["steps"] != float64(2) {
		t.Fatalf("batch_dispatched steps = %#v, want 2", events[1].Attrs["steps"])
	}
}

func TestMetricsClient(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			w.WriteHeader(http.StatusNotFound)
			return
		}
		_, _ = w.Write([]byte("# TYPE xtract_jobs_total counter\nxtract_jobs_total 1\n"))
	}))
	defer ts.Close()
	text, err := New(ts.URL, "").Metrics()
	if err != nil || !strings.Contains(text, "xtract_jobs_total 1") {
		t.Fatalf("metrics = %q, %v", text, err)
	}
}

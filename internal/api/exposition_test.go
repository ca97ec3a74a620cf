package api_test

import (
	"context"
	"errors"
	"math"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"xtract/internal/api"
	"xtract/internal/clock"
	"xtract/internal/core"
	"xtract/internal/deploy"
	"xtract/internal/extractors"
	"xtract/internal/family"
	"xtract/internal/journal"
	"xtract/internal/sdk"
	"xtract/internal/store"
	"xtract/internal/tenant"
)

// designFamilies reads the family list out of DESIGN §8: the lines of its
// first fenced block, "name{label,label} type", keyed by name.
func designFamilies(t *testing.T) map[string]string {
	t.Helper()
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, sec, ok := strings.Cut(string(doc), "\n## 8. ")
	_, block, ok2 := strings.Cut(sec, "\n```text\n")
	block, _, ok3 := strings.Cut(block, "\n```\n")
	if !ok || !ok2 || !ok3 {
		t.Fatal("DESIGN.md §8 has no fenced family list")
	}
	fams := make(map[string]string)
	for _, line := range strings.Split(block, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fams[line[:strings.IndexAny(line, "{ ")]] = line
	}
	return fams
}

// exposedFamilies folds a scrape into the same "name{label,label} type"
// lines: TYPE from the comment, label names in the order the family's
// series carry them (le, the histogram bucket bound, is not one).
func exposedFamilies(t *testing.T, text string) map[string]string {
	t.Helper()
	types := make(map[string]string)
	labels := make(map[string]string)
	labelName := regexp.MustCompile(`([a-z_]+)="`)
	for _, line := range strings.Split(text, "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			types[f[2]] = f[3]
			continue
		}
		if line == "" || line[0] == '#' {
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		if _, ok := types[name]; !ok {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				name = strings.TrimSuffix(name, suffix)
			}
		}
		got := "" // a quote inside a label value is escaped, so only names match
		for _, m := range labelName.FindAllStringSubmatch(line, -1) {
			if m[1] != "le" {
				got += "," + m[1]
			}
		}
		if got != "" {
			got = "{" + got[1:] + "}"
		}
		if prev, seen := labels[name]; seen && prev != got {
			t.Errorf("%s: series disagree on label names: %q and %q", name, prev, got)
		}
		labels[name] = got
	}
	fams := make(map[string]string)
	for name, typ := range types {
		lab, ok := labels[name]
		if !ok {
			t.Errorf("%s exposed no series, so its label names went unchecked: make this test's deployment exercise it", name)
		}
		fams[name] = name + lab + " " + typ
	}
	return fams
}

// TestExpositionMatchesDesign holds /metrics to DESIGN §8: a deployment
// with everything on (tenants, a cache small enough to evict, breakers, a
// journal holding an earlier process's job, a storage-only site staged to
// a compute site) serves one job over HTTP, and the families it then
// exposes -- name, TYPE and label names -- are exactly the documented
// ones. The series whose numbers their owners keep read those numbers.
func TestExpositionMatchesDesign(t *testing.T) {
	clk := clock.NewReal()
	jdir, err := journal.OSDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	start := func() (*deploy.Deployment, *journal.Journal) {
		jnl, err := journal.Open(jdir, journal.Options{Clock: clk})
		if err != nil {
			t.Fatal(err)
		}
		src := store.NewMemFS("petrel", nil)
		_ = src.Write("/data/a.txt", []byte("perovskite cells and absorber layers"))
		_ = src.Write("/data/b.csv", []byte("x,y\n1,2\n3,4\n"))
		tenants := tenant.NewController(tenant.Config{Clock: clk, TaskSlots: 8})
		d, err := deploy.New(context.Background(), clk, []deploy.SiteSpec{
			{Name: "petrel", Store: src},
			{Name: "theta", Store: store.NewMemFS("theta", nil), Workers: 2},
		}, deploy.Options{CacheCapacity: 1, Journal: jnl, Tenants: tenants,
			Settings: core.Settings{Breakers: core.BreakerPolicy{Enabled: true}}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Service.Recover(d.Ctx); err != nil {
			t.Fatal(err)
		}
		return d, jnl
	}
	job := api.JobRequest{Repos: []api.RepoRequest{{Site: "petrel", Roots: []string{"/data"}, Grouper: "single"}}}
	run := func(d *deploy.Deployment) string {
		srv := api.NewServer(d.Service, d.Registry, d.Library, nil)
		srv.SetObserver(d.Obs)
		srv.SetBaseContext(d.Ctx)
		srv.SetTenants(d.Tenants)
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		client := sdk.New(ts.URL, "")
		id, err := client.Submit(job)
		if err != nil {
			t.Fatal(err)
		}
		if st, err := client.WaitJob(id, time.Millisecond, 10*time.Second); err != nil || st.Err != "" {
			t.Fatalf("job %s: %+v, %v", id, st, err)
		}
		text, err := client.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		return text
	}
	d, jnl := start()
	run(d)
	d.Close()
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}
	d, jnl = start() // the restart: recovery finds the first process's job
	defer jnl.Close()
	defer d.Close()

	text := run(d)
	exposed, design := exposedFamilies(t, text), designFamilies(t)
	for name, line := range exposed {
		if design[name] != line {
			t.Errorf("/metrics has %q, DESIGN §8 has %q", line, design[name])
		}
	}
	for name, line := range design {
		if _, ok := exposed[name]; !ok {
			t.Errorf("DESIGN §8 lists %q, /metrics has no such family", line)
		}
	}
	ownersAgree(t, d, jnl, text)
}

// ownersAgree checks that /metrics reads the tenant's bill, the result
// cache's and the journal's counts, the live-job table, and the
// prefetcher's and the validator's pending work, where they are kept.
func ownersAgree(t *testing.T, d *deploy.Deployment, jnl *journal.Journal, text string) {
	t.Helper()
	got := samples(t, text)
	var appends float64
	for series, f := range got {
		if strings.HasPrefix(series, "xtract_journal_appends_total{") {
			appends += f
		}
	}
	u, _ := d.Tenants.UsageFor(tenant.Default)
	c, _ := d.Service.CacheStats()
	ten := `{tenant="default"`
	want := map[string]float64{
		"xtract_tenant_jobs_total" + ten + `,state="complete"}`:  float64(u.JobsCompleted),
		"xtract_tenant_jobs_total" + ten + `,state="degraded"}`:  float64(u.JobsDegraded),
		"xtract_tenant_jobs_total" + ten + `,state="failed"}`:    float64(u.JobsFailed),
		"xtract_tenant_jobs_total" + ten + `,state="cancelled"}`: float64(u.JobsCancelled),
		"xtract_tenant_jobs_active" + ten + "}":                  float64(u.ActiveJobs),
		"xtract_tenant_tasks_total" + ten + "}":                  float64(u.TasksDispatched),
		"xtract_tenant_tasks_inflight" + ten + "}":               float64(u.InFlightTasks),
		"xtract_tenant_steps_total" + ten + "}":                  float64(u.StepsProcessed),
		"xtract_tenant_steps_failed_total" + ten + "}":           float64(u.StepsFailed),
		"xtract_tenant_cache_hits_total" + ten + "}":             float64(u.CacheHits),
		"xtract_tenant_bytes_staged_total" + ten + "}":           float64(u.BytesStaged),
		"xtract_tenant_extractor_seconds_total" + ten + "}":      u.ExtractorSeconds,
		"xtract_cache_hits_total":                                float64(c.Hits),
		"xtract_cache_misses_total":                              float64(c.Misses),
		"xtract_cache_evictions_total":                           float64(c.Evictions),
		"xtract_jobs_active":                                     0,
		"xtract_prefetch_pending":                                float64(d.Prefetcher.Pending()),
		"xtract_validate_pending":                                float64(d.Validation.Pending()),
	}
	if u.JobsCompleted != 1 || u.StepsProcessed == 0 || c.Evictions == 0 {
		t.Errorf("the job left tenant usage %+v and cache stats %+v: want a completed job and evictions", u, c)
	}
	for series, w := range want {
		if v, ok := got[series]; !ok || v != w {
			t.Errorf("%s = %v (exposed: %v), its owner says %v", series, v, ok, w)
		}
	}
	var throttled float64
	for _, reason := range []string{"rate", "jobs", "fairshare"} {
		throttled += got["xtract_tenant_throttled_total"+ten+`,reason="`+reason+`"}`]
	}
	if throttled != float64(u.Throttled) {
		t.Errorf("xtract_tenant_throttled_total sums to %v, the bill says %d", throttled, u.Throttled)
	}
	if n, _, _ := jnl.Stats(); appends != float64(n) {
		t.Errorf("xtract_journal_appends_total sums to %v, the journal accepted %d", appends, n)
	}
}

// samples folds a scrape into its series' values, keyed by name and
// labels as exposed.
func samples(t *testing.T, text string) map[string]float64 {
	t.Helper()
	got := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 || line[0] == '#' {
			continue
		}
		f, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("bad sample %q: %v", line, err)
		}
		got[line[:sp]] = f
	}
	return got
}

// failing is an extractor for *.poison files that always fails, so its
// steps dead-letter and their job ends FAILED.
type failing struct{}

func (failing) Name() string                   { return "poison" }
func (failing) Container() string              { return "xtract-poison" }
func (failing) Applies(fi store.FileInfo) bool { return fi.Extension == "poison" }
func (failing) Extract(*family.Group, map[string][]byte) (map[string]interface{}, error) {
	return nil, errors.New("poisoned")
}

// holding is an extractor for *.held files that returns only once release
// closes, so its job is still running when it is cancelled.
type holding struct{ release chan struct{} }

func (holding) Name() string                   { return "held" }
func (holding) Container() string              { return "xtract-held" }
func (holding) Applies(fi store.FileInfo) bool { return fi.Extension == "held" }
func (h holding) Extract(*family.Group, map[string][]byte) (map[string]interface{}, error) {
	<-h.release
	return map[string]interface{}{}, nil
}

// TestPumpSeriesAreSumsOfJobStats: a job's JobStats is the one count of
// its pump's events, and the process totals and the tenant's bill are
// posted from it. Jobs that end COMPLETE (cold, then warm from the cache),
// FAILED by dead-lettered steps and CANCELLED run over HTTP on one
// deployment; then every series the pump posts equals the sum of their
// stats, and so does the tenant's usage.
func TestPumpSeriesAreSumsOfJobStats(t *testing.T) {
	clk := clock.NewReal()
	src := store.NewMemFS("petrel", nil)
	for path, body := range map[string]string{
		"/ok/a.txt": "perovskite cells and absorber layers", "/ok/b.csv": "x,y\n1,2\n3,4\n",
		"/bad/c.poison": "x", "/bad/d.txt": "absorber",
		"/held/e.txt": "perovskite", "/held/f.held": "x",
	} {
		if err := src.Write(path, []byte(body)); err != nil {
			t.Fatal(err)
		}
	}
	lib := extractors.DefaultLibrary()
	release := make(chan struct{})
	lib.Register(failing{})
	lib.Register(holding{release})
	d, err := deploy.New(context.Background(), clk, []deploy.SiteSpec{
		{Name: "petrel", Store: src},
		{Name: "theta", Store: store.NewMemFS("theta", nil), Workers: 2},
	}, deploy.Options{CacheCapacity: 64, Library: lib, Tenants: tenant.NewController(tenant.Config{Clock: clk})})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	defer close(release)
	srv := api.NewServer(d.Service, d.Registry, d.Library, nil)
	srv.SetObserver(d.Obs)
	srv.SetBaseContext(d.Ctx)
	srv.SetTenants(d.Tenants)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := sdk.New(ts.URL, "")

	var jobs []core.JobStats
	run := func(root, state string, cancel bool) {
		t.Helper()
		id, err := client.Submit(api.JobRequest{Repos: []api.RepoRequest{{Site: "petrel", Roots: []string{root}, Grouper: "single"}}})
		if err != nil {
			t.Fatal(err)
		}
		if cancel {
			for st, _ := client.JobStatus(id); st.Done == 0; st, _ = client.JobStatus(id) {
				time.Sleep(time.Millisecond)
			}
			if err := client.CancelJob(id); err != nil {
				t.Fatal(err)
			}
		}
		st, err := client.WaitJob(id, time.Millisecond, 10*time.Second)
		if err != nil || st.State != state || st.Stats == nil || st.Stats.StepsProcessed == 0 {
			t.Fatalf("job over %s: %+v, %v; want %s with stats", root, st, err, state)
		}
		jobs = append(jobs, *st.Stats)
	}
	run("/ok", "COMPLETE", false)
	run("/ok", "COMPLETE", false)
	run("/bad", "FAILED", false)
	run("/held", "CANCELLED", true)

	var s core.JobStats
	for _, j := range jobs {
		s.FamiliesDone += j.FamiliesDone
		s.FamiliesFailed += j.FamiliesFailed
		s.FamiliesDeadLettered += j.FamiliesDeadLettered
		s.StepsProcessed += j.StepsProcessed
		s.StepsFailed += j.StepsFailed
		s.StepsDeadLettered += j.StepsDeadLettered
		s.TasksResubmitted += j.TasksResubmitted
		s.BytesStaged += j.BytesStaged
		s.StepsHedged += j.StepsHedged
		s.HedgeWins += j.HedgeWins
		s.DuplicateSteps += j.DuplicateSteps
		s.CacheHits += j.CacheHits
		s.ExtractorTime += j.ExtractorTime
	}
	if s.CacheHits == 0 || s.StepsDeadLettered == 0 || s.BytesStaged == 0 {
		t.Fatalf("the jobs' stats sum to %+v: want cache hits, dead-lettered steps and staged bytes", s)
	}
	text, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	got := samples(t, text)
	for series, want := range map[string]int64{
		"xtract_families_done_total":             s.FamiliesDone,
		"xtract_families_failed_total":           s.FamiliesFailed,
		"xtract_groups_processed_total":          s.StepsProcessed,
		"xtract_steps_failed_total":              s.StepsFailed,
		"xtract_tasks_resubmitted_total":         s.TasksResubmitted,
		"xtract_bytes_staged_total":              s.BytesStaged,
		"xtract_hedges_total":                    s.StepsHedged,
		"xtract_hedge_wins_total":                s.HedgeWins,
		"xtract_hedge_fenced_total":              s.DuplicateSteps,
		`xtract_deadletter_total{kind="family"}`: s.FamiliesDeadLettered,
		`xtract_deadletter_total{kind="step"}`:   s.StepsDeadLettered,
	} {
		if v, ok := got[series]; !ok || v != float64(want) {
			t.Errorf("%s = %v (exposed: %v), the jobs' stats sum to %d", series, v, ok, want)
		}
	}
	u, _ := d.Tenants.UsageFor(tenant.Default)
	if u.StepsProcessed != s.StepsProcessed || u.StepsFailed != s.StepsFailed || u.CacheHits != s.CacheHits ||
		u.BytesStaged != s.BytesStaged || math.Abs(u.ExtractorSeconds-s.ExtractorTime.Seconds()) > 1e-9*s.ExtractorTime.Seconds() {
		t.Errorf("tenant usage %+v; the jobs' stats sum to %+v", u, s)
	}
}

package api_test

import (
	"context"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"xtract/internal/api"
	"xtract/internal/clock"
	"xtract/internal/core"
	"xtract/internal/deploy"
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
// with everything on (tenants, cache, breakers, a journal holding an
// earlier process's job, a storage-only site staged to a compute site)
// serves one job over HTTP, and the families it then exposes -- name,
// TYPE and label names -- are exactly the documented ones.
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
		}, deploy.Options{CacheCapacity: 64, Journal: jnl, Tenants: tenants,
			Breakers: core.BreakerPolicy{Enabled: true}})
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

	exposed, design := exposedFamilies(t, run(d)), designFamilies(t)
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
}

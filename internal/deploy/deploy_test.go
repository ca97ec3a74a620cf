package deploy

import (
	"context"
	"strings"
	"testing"
	"time"

	"xtract/internal/clock"
	"xtract/internal/core"
	"xtract/internal/crawler"
	"xtract/internal/dataset"
	"xtract/internal/extractors"
	"xtract/internal/store"
	"xtract/internal/validate"
)

func TestDeploySingleSiteEndToEnd(t *testing.T) {
	repo := store.NewMemFS("site", nil)
	if _, err := dataset.MaterializeMDF(repo, "/data", 20, 1); err != nil {
		t.Fatal(err)
	}
	d, err := New(context.Background(), clock.NewReal(), []SiteSpec{
		{Name: "site", Store: repo, Workers: 2},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	stats, err := d.Service.RunJob(context.Background(), []core.RepoSpec{{
		SiteName: "site",
		Roots:    []string{"/data"},
		Grouper:  crawler.MatIOGrouper(extractors.DefaultLibrary()),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FamiliesDone == 0 || stats.StepsFailed != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	waitValidated(t, d, stats.FamiliesDone)
}

// waitValidated polls until the validation service has processed n
// records: Drain only consumes visible messages, while the background
// Run goroutine may still hold a batch in flight.
func waitValidated(t *testing.T, d *Deployment, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		d.DrainValidation()
		if d.Validation.Validated.Load() >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("validated %d of %d", d.Validation.Validated.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestDeployNoSites(t *testing.T) {
	if _, err := New(context.Background(), clock.NewReal(), nil, Options{}); err == nil {
		t.Fatal("expected error for empty deployment")
	}
}

func TestDeployDefaultsApplied(t *testing.T) {
	repo := store.NewMemFS("s", nil)
	d, err := New(context.Background(), clock.NewReal(), []SiteSpec{
		{Name: "s", Store: repo, Workers: 1},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Library == nil || d.Dest == nil || d.Registry == nil {
		t.Fatal("defaults not applied")
	}
	site, ok := d.Service.Site("s")
	if !ok || site.StagePath != "/xtract-stage" {
		t.Fatalf("site = %+v", site)
	}
}

func TestDeployMDFValidator(t *testing.T) {
	repo := store.NewMemFS("s", nil)
	_ = repo.Write("/d/notes.txt", []byte("perovskite absorber measurement notes"))
	d, err := New(context.Background(), clock.NewReal(), []SiteSpec{
		{Name: "s", Store: repo, Workers: 1},
	}, Options{Validator: validate.NewMDF("unit-test")})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Service.RunJob(context.Background(), []core.RepoSpec{{
		SiteName: "s", Roots: []string{"/d"},
		Grouper: crawler.SingleFileGrouper(extractors.DefaultLibrary()),
	}}); err != nil {
		t.Fatal(err)
	}
	waitValidated(t, d, 1)
	infos, err := d.Dest.List("/metadata")
	if err != nil || len(infos) != 1 {
		t.Fatalf("dest = %v, %v", infos, err)
	}
	data, _ := d.Dest.Read(infos[0].Path)
	if !strings.Contains(string(data), `"source_name":"unit-test"`) {
		t.Fatalf("not an MDF document: %s", data)
	}
}

func TestDeploySurvivesFlakyStore(t *testing.T) {
	// Failure injection: every 7th storage operation fails. The job must
	// complete, with failures surfacing as failed steps or list errors —
	// never as a hang or panic.
	inner := store.NewMemFS("flaky", nil)
	if _, err := dataset.MaterializeMDF(inner, "/data", 30, 2); err != nil {
		t.Fatal(err)
	}
	flaky := store.NewFlaky(inner, 7)
	d, err := New(context.Background(), clock.NewReal(), []SiteSpec{
		{Name: "flaky", Store: flaky, Workers: 2},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	stats, err := d.Service.RunJob(context.Background(), []core.RepoSpec{{
		SiteName: "flaky",
		Roots:    []string{"/data"},
		Grouper:  crawler.SingleFileGrouper(extractors.DefaultLibrary()),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if flaky.Injected() == 0 {
		t.Fatal("no failures injected; test is vacuous")
	}
	// Some work still completes, and the accounting is consistent.
	if stats.FamiliesDone == 0 {
		t.Fatalf("nothing completed under flaky store: %+v", stats)
	}
	if stats.StepsFailed == 0 && stats.Crawl.ListErrors == 0 {
		t.Fatalf("injected failures invisible in stats: %+v (injected %d)",
			stats, flaky.Injected())
	}
}

func TestDeployScaleSmoke(t *testing.T) {
	// A larger live run: ~1000 files through 8 workers must complete
	// promptly with consistent accounting (throughput regression guard).
	if testing.Short() {
		t.Skip("scale smoke test skipped in -short mode")
	}
	repo := store.NewMemFS("big", nil)
	files, err := dataset.MaterializeMDF(repo, "/data", 400, 3)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(context.Background(), clock.NewReal(), []SiteSpec{
		{Name: "big", Store: repo, Workers: 8},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	stats, err := d.Service.RunJob(context.Background(), []core.RepoSpec{{
		SiteName: "big",
		Roots:    []string{"/data"},
		Grouper:  crawler.MatIOGrouper(extractors.DefaultLibrary()),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Crawl.FilesSeen != int64(files) {
		t.Fatalf("files = %d, want %d", stats.Crawl.FilesSeen, files)
	}
	if stats.FamiliesFailed != 0 || stats.StepsFailed != 0 {
		t.Fatalf("failures at scale: %+v", stats)
	}
	waitValidated(t, d, stats.FamiliesDone)
	if stats.Elapsed > 30*time.Second {
		t.Fatalf("scale run took %v", stats.Elapsed)
	}
}

package deploy

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"xtract/internal/clock"
	"xtract/internal/core"
	"xtract/internal/dataset"
	"xtract/internal/extractors"
	"xtract/internal/family"
	"xtract/internal/journal"
	"xtract/internal/registry"
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
	stats, err := d.Service.RunJob(context.Background(), []journal.RepoSpec{{
		Site:    "site",
		Roots:   []string{"/data"},
		Grouper: "matio",
	}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FamiliesDone == 0 || stats.StepsFailed != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	validated(t, d, stats.FamiliesDone)
}

// validated fails unless the validation service has written n documents:
// a job returns only once every one of its documents is written.
func validated(t *testing.T, d *Deployment, n int64) {
	t.Helper()
	if got := d.Validation.Validated.Load(); got != n {
		t.Fatalf("validated %d of %d", got, n)
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
	if _, err := d.Service.RunJob(context.Background(), []journal.RepoSpec{{
		Site: "s", Roots: []string{"/d"},
		Grouper: "single",
	}}); err != nil {
		t.Fatal(err)
	}
	validated(t, d, 1)
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
	stats, err := d.Service.RunJob(context.Background(), []journal.RepoSpec{{
		Site:    "flaky",
		Roots:   []string{"/data"},
		Grouper: "single",
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
	stats, err := d.Service.RunJob(context.Background(), []journal.RepoSpec{{
		Site:    "big",
		Roots:   []string{"/data"},
		Grouper: "matio",
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
	validated(t, d, stats.FamiliesDone)
	if stats.Elapsed > 30*time.Second {
		t.Fatalf("scale run took %v", stats.Elapsed)
	}
}

// poisonExtractor fails every group holding the poisoned file and
// answers every other group at once.
type poisonExtractor struct{ poisoned string }

func (poisonExtractor) Name() string                { return "poison" }
func (poisonExtractor) Container() string           { return "poison" }
func (poisonExtractor) Applies(store.FileInfo) bool { return true }
func (e poisonExtractor) Extract(g *family.Group, _ map[string][]byte) (map[string]interface{}, error) {
	if slices.Contains(g.Files, e.poisoned) {
		return nil, errors.New("poisoned input")
	}
	return map[string]interface{}{"ok": true}, nil
}

// The service's settings pass through Options whole: under
// XtractBatchSize 1 every step rides a FaaS task of its own, and under a
// straggler budget of one a job with one dead-lettered step ends
// DEGRADED instead of FAILED.
func TestOptionsSettingsReachTheService(t *testing.T) {
	repo := store.NewMemFS("site", nil)
	for i := 0; i < 4; i++ {
		if err := repo.Write(fmt.Sprintf("/data/f%d.txt", i), []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	d, err := New(context.Background(), clock.NewReal(), []SiteSpec{
		{Name: "site", Store: repo, Workers: 2},
	}, Options{
		Library:  extractors.NewLibrary(poisonExtractor{poisoned: "/data/f0.txt"}),
		Settings: core.Settings{XtractBatchSize: 1, StragglerBudget: 1, Retry: core.RetryPolicy{MaxAttempts: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	stats, err := d.Service.RunJob(context.Background(), []journal.RepoSpec{{
		Site: "site", Roots: []string{"/data"}, Grouper: "single",
	}})
	if err != nil || !stats.Degraded || stats.StepsDeadLettered != 1 {
		t.Fatalf("job = %+v, %v; want DEGRADED with one dead-lettered step", stats, err)
	}
	if n := d.FaaS.TasksSubmitted.Load(); n != 4 {
		t.Fatalf("%d FaaS tasks for 4 steps; want one task per step", n)
	}
}

// heldValidator blocks its first Validate until release closes,
// announcing it on entered.
type heldValidator struct {
	validate.Validator
	once             sync.Once
	entered, release chan struct{}
}

func (v *heldValidator) Validate(rec validate.Record) ([]byte, error) {
	v.once.Do(func() {
		close(v.entered)
		<-v.release
	})
	return v.Validator.Validate(rec)
}

// documents reads every document under /metadata.
func documents(t *testing.T, dest store.Store) map[string]string {
	t.Helper()
	infos, _ := dest.List("/metadata")
	out := make(map[string]string, len(infos))
	for _, fi := range infos {
		data, err := dest.Read(fi.Path)
		if err != nil {
			t.Fatal(err)
		}
		out[fi.Path] = string(data)
	}
	return out
}

// A job is COMPLETE only once its documents are written. While the
// validator holds them the job is not over, in the journal or to a
// reader; a process shut down then leaves the job unfinished, and the
// next process on the same journal resumes it and writes every one of its
// documents, byte for byte those of an uninterrupted run.
func TestJobEndsOnlyWithItsDocumentsWritten(t *testing.T) {
	repo := store.NewMemFS("site", nil)
	if _, err := dataset.MaterializeMDF(repo, "/data", 8, 1); err != nil {
		t.Fatal(err)
	}
	spec := journal.JobSpec{Repos: []journal.RepoSpec{{Site: "site", Roots: []string{"/data"}, Grouper: "single"}}}
	sites := []SiteSpec{{Name: "site", Store: repo, Workers: 2}}
	life := func(jnl *journal.Journal, v validate.Validator) (*Deployment, store.Store) {
		t.Helper()
		dest := store.NewMemFS("dest", nil)
		d, err := New(context.Background(), clock.NewReal(), sites, Options{Journal: jnl, Validator: v, Dest: dest})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(d.Close)
		return d, dest
	}
	openJournal := func(dir journal.Dir) *journal.Journal {
		t.Helper()
		jnl, err := journal.Open(dir, journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return jnl
	}

	quiet, quietDest := life(nil, nil)
	stats, err := quiet.Service.RunJob(context.Background(), spec.Repos)
	if err != nil || stats.FamiliesDone == 0 {
		t.Fatalf("quiet run = %+v, %v", stats, err)
	}
	want := documents(t, quietDest)
	if int64(len(want)) != stats.FamiliesDone {
		t.Fatalf("the quiet run wrote %d documents for %d families", len(want), stats.FamiliesDone)
	}

	dir, err := journal.OSDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	jnl := openJournal(dir)
	held := &heldValidator{Validator: validate.Passthrough{}, entered: make(chan struct{}), release: make(chan struct{})}
	d, _ := life(jnl, held)
	job, err := d.Service.Submit(d.Ctx, spec) // as serve's API does: the job runs on the deployment's context
	if err != nil {
		t.Fatal(err)
	}
	<-held.entered
	ended := make(chan struct{})
	go func() {
		_, _ = job.Wait()
		close(ended)
	}()
	select {
	case <-ended:
		t.Fatal("the job ended while the validator held its documents")
	case <-time.After(100 * time.Millisecond):
	}
	if v, _ := d.Service.LookupJob(job.ID); v.Record.State == registry.JobComplete {
		t.Fatal("the job answers COMPLETE while the validator holds its documents")
	}
	if js, ok := jnl.JobSnapshot(job.ID); !ok || js.Terminal {
		t.Fatalf("the journal holds the job as %+v while the validator holds its documents", js)
	}

	// Shut down as serve does, the validator still holding its record.
	d.Service.BeginShutdown()
	d.Close()
	<-ended
	close(held.release)
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	jnl = openJournal(dir)
	defer jnl.Close()
	d2, dest2 := life(jnl, nil)
	status, err := d2.Service.Recover(d2.Ctx)
	if err != nil || status.Resumed != 1 {
		t.Fatalf("recovery = %+v, %v; want the job resumed", status, err)
	}
	d2.Service.RecoveryWait()
	if js, ok := jnl.JobSnapshot(job.ID); !ok || js.State != string(registry.JobComplete) {
		t.Fatalf("the resumed job ended as %+v", js)
	}
	if got := documents(t, dest2); !maps.Equal(got, want) {
		t.Fatalf("the resumed job wrote %d documents; the quiet run %d, and they differ", len(got), len(want))
	}
}

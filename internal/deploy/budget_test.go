package deploy

import (
	"context"
	"testing"

	"xtract/internal/clock"
	"xtract/internal/journal"
	"xtract/internal/store"
	"xtract/internal/tenant"
)

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// TestJobFixedCostStaysInItsBudget holds what one job costs the process
// whatever its size: Submit of a one-file job to its terminal state, with
// the journal on a MemFS, tenants sharing 16 task slots and the result
// cache on — admission, the submission and terminal records, the crawl's
// start, the pump and its dispatcher, one task, the document and the
// job's events. The jobs alternate between two one-file repositories over
// a one-entry cache, so every job misses and dispatches its step, as
// many-jobs' thrashing cache does. The count covers every goroutine of
// the deployment; the race detector changes it, so the test skips under
// it.
func TestJobFixedCostStaysInItsBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const budget = 119 // 193 before crawl workers started on demand, traces started with room and a free slot was granted without a waiter
	clk := clock.NewReal()
	repo := store.NewMemFS("site", nil)
	for _, root := range []string{"/r0", "/r1"} {
		if err := repo.Write(root+"/notes.txt", []byte("temperature salinity depth "+root)); err != nil {
			t.Fatal(err)
		}
	}
	jnl, err := journal.Open(journal.StoreDir(store.NewMemFS("journal", nil), "/journal"), journal.Options{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer jnl.Close()
	d, err := New(context.Background(), clk, []SiteSpec{{Name: "site", Store: repo, Workers: 2}}, Options{
		CacheCapacity: 1,
		Journal:       jnl,
		Tenants:       tenant.NewController(tenant.Config{Clock: clk, TaskSlots: 16}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	specs := [2]journal.JobSpec{}
	for i, root := range []string{"/r0", "/r1"} {
		specs[i] = journal.JobSpec{Repos: []journal.RepoSpec{{Site: "site", Roots: []string{root}, Grouper: "single"}}}
	}
	n := 0
	run := func() {
		job, err := d.Service.Submit(d.Ctx, specs[n%2])
		n++
		if err != nil {
			t.Fatal(err)
		}
		stats, err := job.Wait()
		if err != nil || stats.StepsProcessed != 1 || stats.CacheHits != 0 || stats.FamiliesDone != 1 {
			t.Fatalf("job %s ended %+v, %v; want one step extracted", job.ID, stats, err)
		}
	}
	run() // the tenant, its series and the file-hash memo are made once
	allocs := testing.AllocsPerRun(100, run)
	t.Logf("%.0f allocations for a one-file job", allocs)
	if allocs > budget {
		t.Fatalf("a one-file job allocated %.0f times, budget %d", allocs, budget)
	}
}

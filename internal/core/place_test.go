package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"xtract/internal/cache"
	"xtract/internal/clock"
	"xtract/internal/extractors"
	"xtract/internal/faas"
	"xtract/internal/family"
	"xtract/internal/fastjson"
	"xtract/internal/obs"
	"xtract/internal/registry"
	"xtract/internal/scheduler"
	"xtract/internal/store"
	"xtract/internal/transfer"
)

// raceEnabled is set by race_test.go when the race detector is on.
var raceEnabled bool

// recordingPolicy notes every site its policy picks.
type recordingPolicy struct {
	scheduler.Policy
	chose []string
}

func (r *recordingPolicy) Place(fam *family.Family, home scheduler.SiteState, alternates []scheduler.SiteState) string {
	site := r.Policy.Place(fam, home, alternates)
	r.chose = append(r.chose, site)
	return site
}

// TestSeededPlacementIsTheSameEveryRun: Table 2's RAND with a seeded rng
// offloads every family to the same one of three compute sites run after
// run, because the policy sees the other sites in name order, whatever
// order they were added in.
func TestSeededPlacementIsTheSameEveryRun(t *testing.T) {
	place := func() []string {
		clk := clock.NewReal()
		_, results := NewQueues(clk)
		fabric := transfer.NewFabric(clk)
		pol := &recordingPolicy{Policy: &scheduler.RandPolicy{Percent: 100, Rng: rand.New(rand.NewSource(7))}}
		svc := New(Config{
			Clock: clk, FaaS: faas.NewService(clk, faas.Costs{}), Fabric: fabric,
			Library: extractors.DefaultLibrary(), Settings: Settings{Policy: pol},
			Prefetcher: transfer.NewPrefetcher(fabric, clk), ResultQueue: results,
		})
		for _, name := range []string{"gamma", "alpha", "delta", "beta"} {
			svc.AddSite(&Site{Name: name, Store: store.NewMemFS(name, nil), Compute: faas.NewEndpoint("ep-"+name, 1, clk)})
		}
		p := newPump(svc, registry.JobRecord{ID: svc.jobs.mint()}, false, nil)
		for i := 0; i < 32; i++ {
			f := fmt.Sprintf("/d/f%02d.txt", i)
			p.placeFamily(family.Family{ID: "alpha:/d#" + fmt.Sprint(i), Store: "alpha", BasePath: "/d", Files: []string{f},
				Groups: []family.Group{{ID: f, Files: []string{f}, Extractor: "keyword"}}})
		}
		if p.famCount[famStaging] != 32 {
			t.Fatalf("%d of 32 families staging", p.famCount[famStaging])
		}
		return pol.chose
	}
	first := place()
	for _, site := range []string{"beta", "gamma", "delta"} {
		if !slices.Contains(first, site) {
			t.Fatalf("no family went to %s: %v", site, first)
		}
	}
	for run := 2; run <= 5; run++ {
		if got := place(); !slices.Equal(got, first) {
			t.Fatalf("run %d placed the families\n%v\nrun 1 placed them\n%v", run, got, first)
		}
	}
}

// TestOneGroupFamilyStaysInItsBudget: placing a one-group family and
// committing its step — here from the result cache, so no shard is
// involved — and sending its validation record allocates what the
// family's state holds and no more. The count is what the pump reaches
// today; with an observer, the budget leaves one more for each event it
// writes (step_cache_hit, family_done), so that an event's own cost,
// gated at zero by obs's TestEventStaysInItsBudget, fails that test
// alone. The race detector changes the counts, so the test skips under
// it.
func TestOneGroupFamilyStaysInItsBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const budget = 7
	for _, tc := range []struct {
		name   string
		o      *obs.Observer
		budget float64
	}{
		{"observer off", nil, budget},
		{"observer on", obs.New(clock.NewReal()), budget + 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := cache.New(0)
			svc := bareService(t, c, tc.o)
			p := newPump(svc, registry.JobRecord{ID: svc.jobs.mint()}, false, nil)
			fam := family.Family{
				ID: "x:/d#0", Store: "x", BasePath: "/d", Files: []string{"/d/a.txt"},
				Groups:   []family.Group{{ID: "/d#f0", Files: []string{"/d/a.txt"}, Extractor: "keyword"}},
				FileMeta: []family.FileMeta{{Path: "/d/a.txt", Size: 3, ContentHash: "h"}},
			}
			key, ok := p.stepCacheKey(&famState{fam: fam}, scheduler.Step{GroupID: "/d#f0", Extractor: "keyword"})
			if !ok {
				t.Fatal("step not cacheable")
			}
			c.PutRaw(key, fastjson.Raw(`{"keywords":["abc"]}`))
			p.placeFamily(fam) // warm the pump's buffers
			p.flushResults()
			for i := 0; i < 1024; i++ { // and fill the job's trace: its growth is not per event
				tc.o.Event(p.JobID, "warm")
			}
			allocs := testing.AllocsPerRun(20, func() {
				p.placeFamily(fam)
				p.flushResults()
			})
			if p.CacheHits != p.FamiliesDone || p.CacheMisses != 0 {
				t.Fatalf("hits %d, misses %d, families %d; want every family served by one hit",
					p.CacheHits, p.CacheMisses, p.FamiliesDone)
			}
			t.Logf("%.0f allocations to place and commit a one-group family", allocs)
			if allocs > tc.budget {
				t.Fatalf("placing and committing a one-group family allocated %.0f times, budget %.0f", allocs, tc.budget)
			}
			if evs, _ := tc.o.Events(p.JobID); tc.o != nil && evs[len(evs)-1].Type != obs.EvFamilyDone {
				t.Fatalf("last event %+v, want family_done", evs[len(evs)-1])
			}
		})
	}
}

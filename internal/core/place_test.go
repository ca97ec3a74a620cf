package core

import (
	"context"
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
	"xtract/internal/validate"
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
		valsvc := validate.NewService(validate.Passthrough{}, store.NewMemFS("dest", nil))
		fabric := transfer.NewFabric(clk)
		pol := &recordingPolicy{Policy: &scheduler.RandPolicy{Percent: 100, Rng: rand.New(rand.NewSource(7))}}
		svc := New(Config{
			Clock: clk, FaaS: faas.NewService(clk, faas.Costs{}), Fabric: fabric,
			Library: extractors.DefaultLibrary(), Settings: Settings{Policy: pol},
			Prefetcher: transfer.NewPrefetcher(fabric, clk), Validation: valsvc,
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
	const budget = 4
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

// TestStagingAFamilyStaysInItsBudget holds what staging adds to a
// family's way through the pump: stageFamily's pairs, the prefetcher's
// window and its fabric job, the report arriving on the job's sink and
// takeStaged. A two-file family whose files lie on a storage-only site
// is placed, staged to the one compute site, committed from the result
// cache and recorded; the same family placed where its files are is
// measured beside it, and what the fabric's copies cost MemFS (a read
// and a write per file, gated in store) is measured on its own. Staging
// is the difference less those copies, so an allocation the pump's
// common path gains shows in TestOneGroupFamilyStaysInItsBudget and not
// here. The race detector changes the counts, so the test skips under it.
func TestStagingAFamilyStaysInItsBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const budget = 15
	clk := clock.NewReal()
	fabric := transfer.NewFabric(clk)
	pf := transfer.NewPrefetcher(fabric, clk)
	c := cache.New(0)
	svc := New(Config{
		Clock: clk, FaaS: faas.NewService(clk, faas.Costs{}), Fabric: fabric, Prefetcher: pf,
		Library: extractors.DefaultLibrary(), Cache: c, Settings: Settings{Policy: scheduler.LocalPolicy{}},
		Validation: validate.NewService(validate.Passthrough{}, store.NewMemFS("dest", nil)),
	})
	home, target := store.NewMemFS("x", nil), store.NewMemFS("y", nil)
	svc.AddSite(&Site{Name: "x", Store: home})
	svc.AddSite(&Site{Name: "y", Store: target, Compute: faas.NewEndpoint("ep-y", 1, clk),
		SiteSettings: SiteSettings{StagePath: "/stage"}})
	fabric.AddEndpoint("x", home)
	fabric.AddEndpoint("y", target)
	ctx, cancel := context.WithCancel(context.Background())
	ran := make(chan struct{})
	go func() { pf.Run(ctx, 1); close(ran) }()
	defer func() { cancel(); <-ran }()

	files := []string{"/d/a.txt", "/d/b.txt"}
	staged := family.Family{ID: "x:/d#0", Store: "x", BasePath: "/d", Files: files,
		Groups: []family.Group{{ID: "/d#f0", Files: files, Extractor: "keyword"}}}
	for _, f := range files {
		if err := home.Write(f, []byte("abc")); err != nil {
			t.Fatal(err)
		}
		staged.FileMeta = append(staged.FileMeta, family.FileMeta{Path: f, Size: 3, ContentHash: "h" + f})
	}
	inPlace := staged
	inPlace.ID, inPlace.Store = "y:/d#0", "y"
	p := newPump(svc, registry.JobRecord{ID: svc.jobs.mint()}, false, nil)
	key, ok := p.stepCacheKey(&famState{fam: staged}, scheduler.Step{GroupID: "/d#f0", Extractor: "keyword"})
	if !ok {
		t.Fatal("step not cacheable")
	}
	c.PutRaw(key, fastjson.Raw(`{"keywords":["abc"]}`))
	measure := func(fam family.Family) float64 {
		place := func() {
			p.placeFamily(fam)
			for p.famCount[famStaging] > 0 {
				<-p.events.Ready()
				p.handleEvents()
			}
			p.flushResults()
		}
		place() // warm the pump's, the prefetcher's and the fabric's buffers
		return testing.AllocsPerRun(20, place)
	}
	a, b := measure(inPlace), measure(staged)
	pairs := make([]transfer.FilePair, len(files))
	for i, f := range files {
		pairs[i] = transfer.FilePair{Src: f, Dst: "/stage" + f}
	}
	copies := testing.AllocsPerRun(20, func() {
		for _, pair := range pairs {
			data, _ := home.Read(pair.Src)
			_ = target.Write(pair.Dst, data)
		}
	})
	if p.CacheHits != p.FamiliesDone || p.FamiliesFailed != 0 || p.BytesStaged == 0 {
		t.Fatalf("%+v; want every family staged or not and served by one hit", p.JobStats)
	}
	t.Logf("%.0f allocations to place a two-file family in place, %.0f to stage it: %.0f of them MemFS's copies, %.0f staging's own",
		a, b, copies, b-a-copies)
	if b-a-copies > budget {
		t.Errorf("staging a two-file family allocated %.0f times besides its MemFS copies, budget %d", b-a-copies, budget)
	}
}

// TestPayloadNamesEachFileOnce holds the payload the pump builds for a
// step to saying each thing once: the files are the group's own slice,
// not a copy and not one effective path per file, and a staged family's
// prefix is one field per step and its staged paths the family's own
// staging pairs.
func TestPayloadNamesEachFileOnce(t *testing.T) {
	files := []string{"/d/run/INCAR", "/d/run/OUTCAR", "/d/run/POSCAR"}
	st := &famState{fam: family.Family{ID: "fam", Groups: []family.Group{{ID: "g", Files: files}}},
		steps: []stepState{{step: scheduler.Step{GroupID: "g", Extractor: "keyword"}}}}
	for _, stage := range []string{"", "/xtract-stage"} {
		st.stage = stage
		st.prefetch.Pairs = nil
		if stage != "" {
			for _, f := range files {
				st.prefetch.Pairs = append(st.prefetch.Pairs, transfer.FilePair{Src: f, Dst: stage + f})
			}
		}
		sp := st.payload(0)
		if len(sp.Files) != len(files) || &sp.Files[0] != &files[0] {
			t.Errorf("stage %q: the payload names %v, not the group's own slice", stage, sp.Files)
		}
		if len(sp.Staged) != len(st.prefetch.Pairs) || (stage != "" && &sp.Staged[0] != &st.prefetch.Pairs[0]) {
			t.Errorf("stage %q: the payload's staged paths %v are not the family's staging pairs", stage, sp.Staged)
		}
		if sp.Stage != stage || sp.FamilyID != "fam" || sp.GroupID != "g" {
			t.Errorf("stage %q: payload %+v", stage, sp)
		}
	}
}

package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"xtract/internal/extractors"
	"xtract/internal/family"
	"xtract/internal/journal"
	"xtract/internal/scheduler"
	"xtract/internal/store"
)

// readLog is a store that notes every path read through it, and fails
// the next failWrites writes.
type readLog struct {
	store.Store
	mu         sync.Mutex
	reads      []string
	failWrites int
}

func (r *readLog) Read(p string) ([]byte, error) {
	r.mu.Lock()
	r.reads = append(r.reads, p)
	r.mu.Unlock()
	return r.Store.Read(p)
}

func (r *readLog) Write(p string, data []byte) error {
	r.mu.Lock()
	fail := r.failWrites > 0
	if fail {
		r.failWrites--
	}
	r.mu.Unlock()
	if fail {
		return errors.New("readLog: write refused")
	}
	return r.Store.Write(p, data)
}

// paths returns the distinct paths read, in path order.
func (r *readLog) paths() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := slices.Clone(r.reads)
	slices.Sort(out)
	return slices.Compact(out)
}

// placeOn places every family on one site.
type placeOn string

func (placeOn) Name() string { return "place-on" }
func (p placeOn) Place(*family.Family, scheduler.SiteState, []scheduler.SiteState) string {
	return string(p)
}

// overlappingPairs makes one family of each directory of four files:
// groups {f0, f2} and {f1, f2, f3} share f2, so neither group's files
// are a run of the family's.
func overlappingPairs(dir string, files []store.FileInfo) []family.Group {
	if len(files) != 4 {
		return nil
	}
	return []family.Group{
		{ID: dir + "#a", Extractor: "pairread", Files: []string{files[0].Path, files[2].Path}},
		{ID: dir + "#b", Extractor: "pairread", Files: []string{files[1].Path, files[2].Path, files[3].Path}},
	}
}

// TestStagedPathsAreReadWhereTheyLie runs a multi-group family whose
// files lie on a storage-only site ("home") and are staged to "alpha",
// and watches every read of every store. A worker reads a staged file
// under the path staging built for it, and only on the site it was
// staged to:
//   - hedged: each step's first execution on alpha waits for its hedged
//     duplicate, which runs on beta and fetches the files from home under
//     their own paths, never a staged path;
//   - restaged: the first staging fails at alpha's disk and the retry
//     stages the family again; the steps read the same staged paths;
//   - direct fetch: alpha fetches each file from home, and nothing is
//     staged or read under a staging directory.
//
// Run it under -race: the hedged case reads one family's staging pairs
// from two workers at once.
func TestStagedPathsAreReadWhereTheyLie(t *testing.T) {
	const dirs = 2
	files := make([]string, 0, 4*dirs)
	for d := 0; d < dirs; d++ {
		for f := 0; f < 4; f++ {
			files = append(files, fmt.Sprintf("/data/d%d/f%d.dat", d, f))
		}
	}
	for _, mode := range []string{"hedged", "restaged", "direct fetch"} {
		t.Run(mode, func(t *testing.T) {
			ext := &pairReader{pair: mode == "hedged", arrived: make(map[string]chan struct{}), backing: make(map[string]*string)}
			h := newHarnessCfg(t, []siteSpec{{name: "alpha", workers: 4}, {name: "beta", workers: 4}, {name: "home"}},
				placeOn("alpha"), func(cfg *Config) {
					cfg.Library = extractors.NewLibrary(ext)
					cfg.XtractBatchSize = 1
					cfg.Retry = RetryPolicy{BaseBackoff: time.Millisecond}
					if mode == "hedged" {
						cfg.Hedge = HedgePolicy{Enabled: true, Quantile: 0.9, Multiplier: 2, MinSamples: 5}
					}
				})
			for i, f := range files {
				if err := h.sites["home"].Write(f, []byte(strings.Repeat("x", i+1))); err != nil {
					t.Fatal(err)
				}
			}
			logs := make(map[string]*readLog)
			for _, name := range []string{"alpha", "beta", "home"} {
				logs[name] = &readLog{Store: h.sites[name]}
				h.fabric.AddEndpoint(name, logs[name])
				if name != "home" { // the crawl reads home's own store
					site, _ := h.svc.Site(name)
					site.Store = logs[name]
				}
			}
			alpha, _ := h.svc.Site("alpha")
			switch mode {
			case "hedged":
				for i := 0; i < 8; i++ { // past MinSamples: the deadline is its 5 ms floor
					h.svc.estimator.Observe(ext.Name(), 2*time.Millisecond)
				}
			case "restaged":
				logs["alpha"].failWrites = 1
			case "direct fetch":
				alpha.DirectFetch = true
			}
			spec := journal.JobSpec{Repos: []journal.RepoSpec{{Site: "home", Roots: []string{"/data"}}}}
			crawls, err := h.svc.resolve(spec)
			if err != nil {
				t.Fatal(err)
			}
			crawls[0].Grouper = overlappingPairs
			stats, err := h.svc.runJob(context.Background(), newRecord(h.svc.jobs.mint(), spec, h.clk.Now()), spec, crawls, nil).Wait()
			if err != nil || stats.FamiliesDone != dirs || stats.StepsProcessed != 2*dirs || stats.StepsFailed != 0 {
				t.Fatalf("job %+v, %v", stats, err)
			}
			ext.mu.Lock()
			for _, p := range ext.problems {
				t.Error(p)
			}
			paired := ext.paired
			ext.mu.Unlock()

			staged := make([]string, len(files))
			for i, f := range files {
				staged[i] = alpha.StagePath + f
			}
			alphaReads, want := logs["alpha"].paths(), staged
			if mode == "direct fetch" {
				want = nil
			}
			if !slices.Equal(alphaReads, want) {
				t.Errorf("alpha read %q, want %q", alphaReads, want)
			}
			if got := logs["beta"].paths(); len(got) != 0 {
				t.Errorf("beta read %q from its own store, want nothing: a hedge fetches from home", got)
			}
			if got := logs["home"].paths(); !slices.Equal(got, files) {
				t.Errorf("home served %q, want each file under its own path: %q", got, files)
			}
			switch {
			case mode == "hedged" && (stats.StepsHedged != 2*dirs || paired != 2*dirs):
				t.Errorf("%d steps hedged and %d executions paired, want %d each", stats.StepsHedged, paired, 2*dirs)
			case mode == "restaged" && stats.StepsRetried == 0:
				t.Errorf("staging was not retried: %+v", stats)
			case mode == "direct fetch" && stats.BytesStaged != 0:
				t.Errorf("direct fetch staged %d bytes", stats.BytesStaged)
			}
		})
	}
}

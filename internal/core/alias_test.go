package core

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"xtract/internal/clock"
	"xtract/internal/extractors"
	"xtract/internal/family"
	"xtract/internal/journal"
	"xtract/internal/queue"
	"xtract/internal/scheduler"
	"xtract/internal/store"
)

// scribble overwrites the buffer's full capacity, emulating a producer
// that encodes its next body into the bytes it has just sent.
func scribble(b []byte) {
	s := b[:cap(b)]
	for j := range s {
		s[j] = 'X'
	}
}

// TestPooledPayloadNotAliasedByQueue: queue.SendBatch copies every body,
// so a producer may encode its next message into the buffer it has just
// sent without corrupting the queued ones.
func TestPooledPayloadNotAliasedByQueue(t *testing.T) {
	q := queue.New("alias", clock.NewReal())
	want := []byte(`{"family_id":"f","group_id":"g","files":["/a"]}`)

	const rounds = 200
	var buf []byte
	for i := 0; i < rounds; i++ {
		buf = append(buf[:0], want...)
		q.SendBatch([][]byte{buf})
		scribble(buf)
	}
	var got [][]byte
	for len(got) < rounds {
		msgs := q.Receive(64, time.Minute)
		for _, m := range msgs {
			got = append(got, m.Body)
			_ = q.Delete(m.Receipt)
		}
	}
	for i := range got {
		if !bytes.Equal(got[i], want) {
			t.Fatalf("message %d corrupted by the producer's next encode:\ngot:  %s\nwant: %s",
				i, got[i], want)
		}
	}
}

// reversedTriples groups a directory's files three at a time, each group
// listing its files against path order, as a grouping function outside
// the library may.
func reversedTriples(dir string, files []store.FileInfo) []family.Group {
	var out []family.Group
	for i := 0; i+2 < len(files); i += 3 {
		out = append(out, family.Group{ID: fmt.Sprintf("%s#t%d", dir, i/3), Extractor: "pairread",
			Files: []string{files[i+2].Path, files[i+1].Path, files[i].Path}})
	}
	return out
}

// pairReader reads its group's file list many times over and describes
// the files in the order the list gives them. With pair set, the first
// execution of each group waits for a second, its hedged duplicate, so
// the two read one list at the same moment.
type pairReader struct {
	pair bool

	mu       sync.Mutex
	arrived  map[string]chan struct{}
	backing  map[string]*string // the first execution's &g.Files[0]
	paired   int
	problems []string
}

func (*pairReader) Name() string                { return "pairread" }
func (*pairReader) Container() string           { return "pairread-container" }
func (*pairReader) Applies(store.FileInfo) bool { return true }
func (x *pairReader) problem(format string, args ...any) {
	x.mu.Lock()
	x.problems = append(x.problems, fmt.Sprintf(format, args...))
	x.mu.Unlock()
}

func (x *pairReader) Extract(g *family.Group, files map[string][]byte) (map[string]interface{}, error) {
	if x.pair {
		x.mu.Lock()
		ch, second := x.arrived[g.ID]
		if second {
			x.paired++
			if x.backing[g.ID] != &g.Files[0] {
				x.problems = append(x.problems, g.ID+": the duplicate read a copy of the group's files")
			}
			close(ch)
		} else {
			ch = make(chan struct{})
			x.arrived[g.ID], x.backing[g.ID] = ch, &g.Files[0]
		}
		x.mu.Unlock()
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			x.problem("%s: no duplicate ran beside the first execution", g.ID)
		}
	}
	n := 0
	for round := 0; round < 100; round++ {
		for _, f := range g.Files {
			n += len(f)
		}
	}
	if !slices.IsSorted(g.Files) {
		x.problem("%s: files reached the extractor out of path order: %v", g.ID, g.Files)
	}
	size := 0
	for _, f := range g.Files {
		size += len(files[f])
	}
	return map[string]interface{}{"files": strings.Join(g.Files, ","), "bytes": size, "reads": n}, nil
}

// TestHedgedCopiesShareTheGroupsFiles: a task's payload is a value the
// fabric carries as given, and each step names its group's files by the
// family's own slice. A grouper hands every group over against path
// order; hedging is on, and each step's first execution waits for its
// duplicate, so the two executions read that one slice at the same moment
// while the pump commits the winner. Both see the files in path order
// without anyone writing them (a write would trip -race), the duplicate
// reads the very slice the original does, and the documents (whose
// metadata lists the files in the order the extractor saw them) are the
// bytes an unhedged run writes.
func TestHedgedCopiesShareTheGroupsFiles(t *testing.T) {
	const dirs, perDir = 2, 6
	const groups = dirs * perDir / 3
	run := func(hedge bool) (JobStats, map[string][]byte, *pairReader) {
		t.Helper()
		ext := &pairReader{pair: hedge, arrived: make(map[string]chan struct{}), backing: make(map[string]*string)}
		h := newHarnessCfg(t, []siteSpec{{name: "alpha", workers: 8}, {name: "beta", workers: 8}},
			scheduler.LocalPolicy{}, func(cfg *Config) {
				cfg.Library = extractors.NewLibrary(ext)
				cfg.XtractBatchSize = 1
				cfg.Hedge = HedgePolicy{Enabled: hedge, Quantile: 0.9, Multiplier: 2, MinSamples: 5}
			})
		for d := 0; d < dirs; d++ {
			for f := 0; f < perDir; f++ {
				if err := h.sites["alpha"].Write(fmt.Sprintf("/data/d%d/f%d.dat", d, f), []byte(strings.Repeat("x", 10*d+f+1))); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Past MinSamples, so a waiting first execution is hedged at the
		// adaptive deadline's 5 ms floor.
		for i := 0; i < 8; i++ {
			h.svc.estimator.Observe(ext.Name(), 2*time.Millisecond)
		}
		spec := journal.JobSpec{Repos: []journal.RepoSpec{{Site: "alpha", Roots: []string{"/data"}, NoMinTransfers: true}}}
		crawls, err := h.svc.resolve(spec)
		if err != nil {
			t.Fatal(err)
		}
		crawls[0].Grouper = reversedTriples
		stats, err := h.svc.runJob(context.Background(), newRecord(h.svc.jobs.mint(), spec, h.clk.Now()), spec, crawls, nil).Wait()
		if err != nil || stats.FamiliesDone != groups || stats.StepsProcessed != groups || stats.StepsFailed != 0 {
			t.Fatalf("hedge=%v: job %+v, %v", hedge, stats, err)
		}
		ext.mu.Lock()
		defer ext.mu.Unlock()
		for _, p := range ext.problems {
			t.Errorf("hedge=%v: %s", hedge, p)
		}
		return stats, h.docs(t, groups), ext
	}

	plain, want, _ := run(false)
	if plain.StepsHedged != 0 {
		t.Fatalf("the unhedged run hedged: %+v", plain)
	}
	hedged, docs, ext := run(true)
	if hedged.StepsHedged != groups || ext.paired != groups {
		t.Fatalf("%d steps hedged and %d executions paired, want %d each: %+v", hedged.StepsHedged, ext.paired, groups, hedged)
	}
	if !docsEqual(docs, want) {
		t.Fatalf("the hedged run's documents differ from the unhedged run's:\n got: %q\nwant: %q", docs, want)
	}
}

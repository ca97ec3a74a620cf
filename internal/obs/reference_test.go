package obs

import (
	"bytes"
	"fmt"
	"log/slog"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"xtract/internal/clock"
)

// The event ring as it was before attributes moved into per-job arenas:
// each entry holds its own right-sized copy of its encoded attributes.
// It is the reference TestRingMatchesReference holds the arena ring to.
// The attribute codec (appendAttr, nextAttr) is shared: the arenas store
// what it writes and did not change it.

type refEntry struct {
	seq   int64
	time  time.Time
	typ   string
	attrs []byte
}

type refTrace struct {
	entries []refEntry
	next    int
	dropped int64
}

type refRing struct {
	clk   clock.Clock
	jobs  map[string]*refTrace
	order []string
	held  int
	seq   int64
}

func (r *refRing) evictOldest() {
	r.held -= len(r.jobs[r.order[0]].entries)
	delete(r.jobs, r.order[0])
	r.order = r.order[1:]
}

func (r *refRing) event(job, typ string, attrs ...slog.Attr) {
	if job == "" {
		return
	}
	var enc []byte
	for _, a := range attrs {
		enc = appendAttr(enc, a)
	}
	e := refEntry{time: r.clk.Now(), typ: typ, attrs: enc}
	jt, ok := r.jobs[job]
	if !ok {
		jt = &refTrace{}
		r.jobs[job] = jt
		r.order = append(r.order, job)
		for len(r.order) > maxJobs {
			r.evictOldest()
		}
	}
	r.seq++
	e.seq = r.seq
	if len(jt.entries) < perJob {
		jt.entries = append(jt.entries, e)
		r.held++
		for r.held > maxEvents && r.order[0] != job {
			r.evictOldest()
		}
		return
	}
	jt.entries[jt.next] = e
	jt.next = (jt.next + 1) % perJob
	jt.dropped++
}

func (r *refRing) events(job string) ([]Event, int64) {
	jt, ok := r.jobs[job]
	if !ok {
		return []Event{}, 0
	}
	held := append(append([]refEntry(nil), jt.entries[jt.next:]...), jt.entries[:jt.next]...)
	out := make([]Event, len(held))
	for i, e := range held {
		ev := Event{Seq: e.seq, Time: e.time, Type: e.typ, Attrs: make(map[string]any)}
		var b strings.Builder
		for rest := e.attrs; len(rest) > 0; {
			var a slog.Attr
			a, rest = nextAttr(rest)
			if b.Len() > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(a.Key)
			b.WriteByte('=')
			b.WriteString(a.Value.String())
			ev.Attrs[a.Key] = a.Value.Any()
		}
		ev.Detail = b.String()
		out[i] = ev
	}
	return out, jt.dropped
}

// randomAttrs draws up to four attributes of every kind a caller can
// pass, strings past the encoder's stack buffer and non-ASCII included.
func randomAttrs(rng *rand.Rand) []slog.Attr {
	kinds := []func(k string) slog.Attr{
		func(k string) slog.Attr { return slog.String(k, "task-"+fmt.Sprint(rng.Intn(1000))) },
		func(k string) slog.Attr { return slog.String(k, "") },
		func(k string) slog.Attr { return slog.String(k, "fâmille/日本/"+strings.Repeat("x", rng.Intn(400))) },
		func(k string) slog.Attr { return slog.Int(k, rng.Intn(1<<20)-1<<19) },
		func(k string) slog.Attr { return slog.Int64(k, rng.Int63()) },
		func(k string) slog.Attr { return slog.Duration(k, time.Duration(rng.Int63n(int64(time.Hour)))) },
		func(k string) slog.Attr { return slog.Uint64(k, rng.Uint64()) },
		func(k string) slog.Attr { return slog.Float64(k, rng.NormFloat64()) },
		func(k string) slog.Attr { return slog.Bool(k, rng.Intn(2) == 0) },
		func(k string) slog.Attr { return slog.Time(k, time.Unix(rng.Int63n(1<<31), 0).UTC()) },
		func(k string) slog.Attr {
			return slog.Any(k, []string{"petrel:/mdf/" + fmt.Sprint(rng.Intn(9)), "gdrive:/"})
		},
		func(k string) slog.Attr { return slog.Group(k, slog.Int("a", 1), slog.String("b", "c")) },
	}
	attrs := make([]slog.Attr, rng.Intn(5))
	for i := range attrs {
		attrs[i] = kinds[rng.Intn(len(kinds))](fmt.Sprintf("k%d", i))
	}
	return attrs
}

// TestRingMatchesReference drives the arena ring and the reference with
// one random stream of events and warnings: one hot job at a time that
// overwrites its ring, mixed in the first half with a spread of jobs
// wide enough to pass the 512-job bound, alone in the second half until
// the hot traces pass the 2¹⁵-event bound. Every job's events and
// dropped count must read the same from both, throughout.
func TestRingMatchesReference(t *testing.T) {
	var logged bytes.Buffer
	defer slog.SetDefault(slog.Default())
	slog.SetDefault(slog.New(slog.NewTextHandler(&logged, nil)))

	clk := clock.NewFake(time.Unix(1_700_000_000, 0))
	o := New(clk)
	ref := &refRing{clk: clk, jobs: make(map[string]*refTrace)}
	rng := rand.New(rand.NewSource(7))
	var seen []string // every job written to, in first-write order
	isSeen := make(map[string]bool)
	check := func(job string) {
		t.Helper()
		got, gotDropped := o.Events(job)
		want, wantDropped := ref.events(job)
		if gotDropped != wantDropped || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: ring has %d events (%d dropped), reference %d (%d dropped)",
				job, len(got), gotDropped, len(want), wantDropped)
		}
	}
	const steps = 3 * maxEvents
	warns, peakHeld := 0, 0
	for i := 0; i < steps; i++ {
		clk.Advance(time.Microsecond)
		job := fmt.Sprintf("hot-%d", i/(perJob+perJob/2))
		if i < steps/2 && rng.Intn(2) == 0 {
			job = fmt.Sprintf("job-%d", i/16+rng.Intn(600))
		}
		if !isSeen[job] {
			isSeen[job] = true
			seen = append(seen, job)
		}
		typ, attrs := EvTaskCompleted, randomAttrs(rng)
		if rng.Intn(100) == 0 {
			typ = EvFamilyFailed
			o.Warn(job, typ, attrs...)
			warns++
		} else {
			o.Event(job, typ, attrs...)
		}
		ref.event(job, typ, attrs...)
		peakHeld = max(peakHeld, ref.held)
		if i == steps/2 && len(ref.order) != maxJobs {
			t.Fatalf("the spread reached %d jobs, not the %d-job bound", len(ref.order), maxJobs)
		}
		if i%1009 == 0 {
			check(job)
			check(seen[rng.Intn(len(seen))])
		}
	}
	if peakHeld < maxEvents {
		t.Fatalf("the stream held at most %d events, short of the %d-event bound", peakHeld, maxEvents)
	}
	for _, job := range seen {
		check(job)
	}
	if n := strings.Count(logged.String(), "level=WARN"); n != warns {
		t.Fatalf("%d warnings logged, %d written", n, warns)
	}
}

package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
)

// layer names one instrumented boundary. The job layer is the root span
// of every job (SDK submit → last document written); whatever part of
// it no child span covers is time spent in the layers the harness cannot
// wrap from outside (core pump, queue, faas, transfer) or spent waiting.
type layer uint8

const (
	layerJob layer = iota
	layerAPI
	layerStoreSrc
	layerExtractors
	layerValidate
	layerStoreDest
	layerJournal
	nLayers
)

var layerNames = [nLayers]string{"job", "api", "store.src", "extractors", "validate", "store.dest", "journal"}

type op uint8

const (
	opJob op = iota
	opSubmit
	opStatus
	opList
	opRead
	opWrite
	opStat
	opDelete
	opExtract
	opValidate
	opSync
)

var opNames = [...]string{"job", "submit", "status", "list", "read", "write", "stat", "delete", "extract", "validate", "sync"}

// span is one boundary crossing. Times are nanoseconds since the
// harness epoch (monotonic). Parent is 0 for spans no job owns.
type span struct {
	ID, Parent uint32
	Job        int32
	Layer      layer
	Op         op
	Start, End int64
	Bytes      int64
}

const (
	traceShards = 16
	// maxSlots bounds concurrent closed-loop clients (one slot each).
	maxSlots = 64
	// traceFileSpans caps the spans written to the trace file; the budget
	// table is always computed over every span held in memory.
	traceFileSpans = 200_000
)

// tracer holds spans in memory. It is off until enable(true); a nil
// tracer is valid and records nothing, which is how untraced runs avoid
// even the atomic load.
type tracer struct {
	on  atomic.Bool
	ids atomic.Uint32
	// cur maps a client slot to its job in flight: root span ID in the
	// high half, job number in the low half.
	cur    [maxSlots]atomic.Uint64
	shards [traceShards]struct {
		mu    sync.Mutex
		spans []span
		_     [40]byte // keep neighbouring shard locks off one cache line
	}
}

func (t *tracer) enable(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

func (t *tracer) now() int64 { return sinceEpoch() }

// begin returns the start stamp of a span, or -1 when tracing is off.
func (t *tracer) begin() int64 {
	if t == nil || !t.on.Load() {
		return -1
	}
	return t.now()
}

// end records a span begun at start on behalf of the job in slot
// (slot < 0: no owning job).
func (t *tracer) end(l layer, o op, slot int, start int64, bytes int) {
	if start < 0 {
		return
	}
	s := span{ID: t.ids.Add(1), Job: -1, Layer: l, Op: o, Start: start, End: t.now(), Bytes: int64(bytes)}
	if slot >= 0 && slot < maxSlots {
		if c := t.cur[slot].Load(); c != 0 {
			s.Parent, s.Job = uint32(c>>32), int32(uint32(c))
		}
	}
	t.put(s)
}

func (t *tracer) put(s span) {
	sh := &t.shards[s.ID%traceShards]
	sh.mu.Lock()
	sh.spans = append(sh.spans, s)
	sh.mu.Unlock()
}

// openJob starts the root span of job number job in slot and returns
// its ID (0 when tracing is off).
func (t *tracer) openJob(slot, job int) (id uint32, start int64) {
	start = t.begin()
	if start < 0 {
		return 0, start
	}
	id = t.ids.Add(1)
	t.cur[slot].Store(uint64(id)<<32 | uint64(uint32(job)))
	return id, start
}

// closeJob records the root span opened by openJob, ending at end.
func (t *tracer) closeJob(slot, job int, id uint32, start, end int64) {
	if id == 0 {
		return
	}
	t.cur[slot].Store(0)
	t.put(span{ID: id, Job: int32(job), Layer: layerJob, Op: opJob, Start: start, End: end})
}

// collect returns every recorded span ordered by start time.
func (t *tracer) collect() []span {
	var all []span
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		all = append(all, sh.spans...)
		sh.mu.Unlock()
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	return all
}

// layerBudget is one row of the Fig. 3-style table.
type layerBudget struct {
	Calls int64
	Busy  int64 // Σ span durations, ns
	Self  int64 // Σ (duration − union of child spans), ns
	Bytes int64
}

// budget folds spans (sorted by start) into per-layer rows. A span's self
// time is its duration minus the part of that interval its children cover.
func budget(spans []span) [nLayers]layerBudget {
	var rows [nLayers]layerBudget
	var maxID uint32
	for i := range spans {
		if spans[i].ID > maxID {
			maxID = spans[i].ID
		}
	}
	// IDs are dense, so a slice indexes parents faster than a map.
	at := make([]int32, maxID+1)
	for i := range at {
		at[i] = -1
	}
	for i := range spans {
		at[spans[i].ID] = int32(i)
	}
	// covered[i] accumulates the union of span i's children; frontier[i]
	// is where that union currently ends. Children arrive in start order,
	// so one pass merges them.
	covered := make([]int64, len(spans))
	frontier := make([]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		if s.Parent == 0 || int(s.Parent) >= len(at) || at[s.Parent] < 0 {
			continue
		}
		p := at[s.Parent]
		lo, hi := s.Start, s.End
		if lo < spans[p].Start {
			lo = spans[p].Start
		}
		if hi > spans[p].End {
			hi = spans[p].End
		}
		if lo < frontier[p] {
			lo = frontier[p]
		}
		if hi > lo {
			covered[p] += hi - lo
			frontier[p] = hi
		}
	}
	for i := range spans {
		s := &spans[i]
		r := &rows[s.Layer]
		r.Calls++
		r.Busy += s.End - s.Start
		r.Self += s.End - s.Start - covered[i]
		r.Bytes += s.Bytes
	}
	return rows
}

// printBudget writes the per-layer table: calls, busy seconds, self
// seconds and each layer's share of all self time (which sums to the
// time jobs were in flight plus the un-owned journal syncs).
func printBudget(w io.Writer, name string, rows [nLayers]layerBudget) {
	var total int64
	for _, r := range rows {
		total += r.Self
	}
	fmt.Fprintf(w, "# traced pass, %s: layer budget\n", name)
	fmt.Fprintf(w, "# %-28s %10s %10s %10s %7s\n", "layer", "calls", "busy_s", "self_s", "share")
	for l, r := range rows {
		label := layerNames[l]
		if layer(l) == layerJob {
			label = "job (core+queue+faas+wait)"
		}
		share := 0.0
		if total > 0 {
			share = float64(r.Self) / float64(total)
		}
		fmt.Fprintf(w, "# %-28s %10d %10.3f %10.3f %6.1f%%\n", label, r.Calls,
			float64(r.Busy)/1e9, float64(r.Self)/1e9, 100*share)
	}
}

// writeSpans writes up to traceFileSpans spans as JSON lines, preceded
// by one header line saying how many there were.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	n := len(spans)
	if n > traceFileSpans {
		n = traceFileSpans
	}
	fmt.Fprintf(w, `{"spans_recorded":%d,"spans_written":%d}`+"\n", len(spans), n)
	for _, s := range spans[:n] {
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"job":%d,"layer":%q,"op":%q,"start_ns":%d,"end_ns":%d,"bytes":%d}`+"\n",
			s.ID, s.Parent, s.Job, layerNames[s.Layer], opNames[s.Op], s.Start, s.End, s.Bytes)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

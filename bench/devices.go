package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xtract/internal/extractors"
	"xtract/internal/family"
	"xtract/internal/journal"
	"xtract/internal/store"
	"xtract/internal/validate"
)

// --- modelled journal device ---

// syncCost is what one Sync of the modelled journal device costs. A real
// disk's fsync is not something a sandbox can report repeatably (±16 %
// across runs on /tmp while sizing the issue); a fixed sleep keeps the
// group-commit dynamics — appenders pile up behind the leader — and
// makes fsync counts and bytes the reported quantities.
const syncCost = time.Millisecond

// memJournal is a journal.Dir whose files live in memory. It is also the
// boundary decorator for the journal layer: it counts syncs, bytes and
// time spent syncing, and records a span per Sync in traced runs.
type memJournal struct {
	tr   *tracer
	cost time.Duration // per Sync; 0 makes the device free (layer replay)

	mu    sync.Mutex
	files map[string]*memFile

	syncs  atomic.Int64
	bytes  atomic.Int64
	syncNS atomic.Int64
}

func newMemJournal(tr *tracer) *memJournal {
	return &memJournal{tr: tr, cost: syncCost, files: make(map[string]*memFile)}
}

func (d *memJournal) List() ([]string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	names := make([]string, 0, len(d.files))
	for n := range d.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

func (d *memJournal) Read(name string) ([]byte, error) {
	d.mu.Lock()
	f, ok := d.files[name]
	d.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("memjournal: %s: %w", name, store.ErrNotFound)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]byte(nil), f.buf...), nil
}

func (d *memJournal) Create(name string) (journal.File, error) {
	f := &memFile{dir: d}
	d.mu.Lock()
	d.files[name] = f
	d.mu.Unlock()
	return f, nil
}

func (d *memJournal) Remove(name string) error {
	d.mu.Lock()
	delete(d.files, name)
	d.mu.Unlock()
	return nil
}

type memFile struct {
	dir *memJournal
	mu  sync.Mutex
	buf []byte
}

func (f *memFile) Write(p []byte) (int, error) {
	f.mu.Lock()
	f.buf = append(f.buf, p...)
	f.mu.Unlock()
	f.dir.bytes.Add(int64(len(p)))
	return len(p), nil
}

func (f *memFile) Sync() error {
	t0 := time.Now()
	start := f.dir.tr.begin()
	if f.dir.cost > 0 {
		time.Sleep(f.dir.cost)
	}
	f.dir.tr.end(layerJournal, opSync, -1, start, 0)
	f.dir.syncs.Add(1)
	f.dir.syncNS.Add(int64(time.Since(t0)))
	return nil
}

func (f *memFile) Close() error { return nil }

// --- destination store ---

// destStore is the store handed to the deployment as Options.Dest. It
// counts document writes per path prefix: validation is asynchronous, so
// a job's documents are not all written when its status turns complete,
// and the count is what tells the harness a job has really finished.
type destStore struct {
	store.Store
	tr     *tracer
	slotOf func(path string) int

	writes  atomic.Int64
	bytes   atomic.Int64
	writeNS atomic.Int64

	mu      sync.RWMutex
	watches []*watch
}

// watch counts writes under one prefix while a job is in flight.
type watch struct {
	prefix string
	n      atomic.Int64
	last   atomic.Int64 // time of the latest write, ns since the harness epoch
	sig    chan struct{}

	mu    sync.Mutex
	paths []string // every path written, for the oracle
}

func newDestStore(tr *tracer, slotOf func(string) int) *destStore {
	return &destStore{Store: store.NewMemFS("metadata-dest", nil), tr: tr, slotOf: slotOf}
}

func (d *destStore) watch(prefix string) *watch {
	w := &watch{prefix: prefix, sig: make(chan struct{}, 1)}
	d.mu.Lock()
	d.watches = append(d.watches, w)
	d.mu.Unlock()
	return w
}

func (d *destStore) unwatch(w *watch) {
	d.mu.Lock()
	for i, x := range d.watches {
		if x == w {
			d.watches = append(d.watches[:i], d.watches[i+1:]...)
			break
		}
	}
	d.mu.Unlock()
}

func (d *destStore) Write(p string, data []byte) error {
	start := d.tr.begin()
	err := d.Store.Write(p, data)
	if start >= 0 {
		d.writeNS.Add(d.tr.now() - start)
		d.tr.end(layerStoreDest, opWrite, d.slotOf(p), start, len(data))
	}
	if err != nil {
		return err
	}
	d.writes.Add(1)
	d.bytes.Add(int64(len(data)))
	now := sinceEpoch()
	d.mu.RLock()
	for _, w := range d.watches {
		if strings.HasPrefix(p, w.prefix) {
			w.mu.Lock()
			w.paths = append(w.paths, p)
			w.mu.Unlock()
			w.last.Store(now)
			w.n.Add(1)
			select {
			case w.sig <- struct{}{}:
			default:
			}
		}
	}
	d.mu.RUnlock()
	return nil
}

// wait blocks until n writes were seen or the timeout passes, and
// reports whether they were.
func (w *watch) wait(n int64, timeout time.Duration) bool {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for w.n.Load() < n {
		select {
		case <-w.sig:
		case <-deadline.C:
			return w.n.Load() >= n
		}
	}
	return true
}

// --- boundary decorators (traced runs only) ---

// opCounters is the running total beside a decorator's spans — calls,
// bytes and busy time — so that ratios need no pass over the spans. Like
// the spans it grows only while the tracer is on.
type opCounters struct {
	calls, bytes, ns atomic.Int64
}

func (c *opCounters) add(start, end int64, bytes int) {
	c.calls.Add(1)
	c.bytes.Add(int64(bytes))
	c.ns.Add(end - start)
}

// tracedStore wraps a source (or staging) store.
type tracedStore struct {
	inner  store.Store
	tr     *tracer
	slotOf func(path string) int
	list   opCounters
	read   opCounters
	write  opCounters
}

func (s *tracedStore) Name() string { return s.inner.Name() }

func (s *tracedStore) List(dir string) ([]store.FileInfo, error) {
	start := s.tr.begin()
	infos, err := s.inner.List(dir)
	if start >= 0 {
		s.list.add(start, s.tr.now(), 0)
		s.tr.end(layerStoreSrc, opList, s.slotOf(dir), start, 0)
	}
	return infos, err
}

func (s *tracedStore) Read(p string) ([]byte, error) {
	start := s.tr.begin()
	data, err := s.inner.Read(p)
	if start >= 0 {
		s.read.add(start, s.tr.now(), len(data))
		s.tr.end(layerStoreSrc, opRead, s.slotOf(p), start, len(data))
	}
	return data, err
}

func (s *tracedStore) Write(p string, data []byte) error {
	start := s.tr.begin()
	err := s.inner.Write(p, data)
	if start >= 0 {
		s.write.add(start, s.tr.now(), len(data))
		s.tr.end(layerStoreSrc, opWrite, s.slotOf(p), start, len(data))
	}
	return err
}

func (s *tracedStore) Stat(p string) (store.FileInfo, error) {
	start := s.tr.begin()
	fi, err := s.inner.Stat(p)
	s.tr.end(layerStoreSrc, opStat, s.slotOf(p), start, 0)
	return fi, err
}

func (s *tracedStore) Delete(p string) error {
	start := s.tr.begin()
	err := s.inner.Delete(p)
	s.tr.end(layerStoreSrc, opDelete, s.slotOf(p), start, 0)
	return err
}

// tracedExtractor wraps one extractor of the library. It forwards the
// version stamp so cache keys are the ones the bare extractor produces.
type tracedExtractor struct {
	extractors.Extractor
	tr     *tracer
	slotOf func(path string) int
	stats  *opCounters
}

func (e *tracedExtractor) Version() string { return extractors.VersionOf(e.Extractor) }

func (e *tracedExtractor) Extract(g *family.Group, files map[string][]byte) (map[string]interface{}, error) {
	start := e.tr.begin()
	md, err := e.Extractor.Extract(g, files)
	if start >= 0 {
		n := 0
		for _, b := range files {
			n += len(b)
		}
		slot := -1
		if len(g.Files) > 0 {
			slot = e.slotOf(g.Files[0])
		}
		e.stats.add(start, e.tr.now(), n)
		e.tr.end(layerExtractors, opExtract, slot, start, n)
	}
	return md, err
}

// traceLibrary returns lib with every extractor wrapped, in the same
// registration order (the order decides a group's first extractor).
func traceLibrary(lib *extractors.Library, tr *tracer, slotOf func(string) int, stats *opCounters) (*extractors.Library, error) {
	out := extractors.NewLibrary()
	for _, name := range lib.Names() {
		ext, err := lib.Get(name)
		if err != nil {
			return nil, err
		}
		out.Register(&tracedExtractor{Extractor: ext, tr: tr, slotOf: slotOf, stats: stats})
	}
	return out, nil
}

// tracedValidator wraps the validator. Beside its span it keeps the
// latest records it saw, re-encoded, as input for the layer replay.
type tracedValidator struct {
	inner  validate.Validator
	tr     *tracer
	slotOf func(path string) int
	stats  opCounters

	mu      sync.Mutex
	samples [][]byte
}

// replaySamples bounds how many captured inputs a replay keeps.
const replaySamples = 512

func (v *tracedValidator) Name() string { return v.inner.Name() }

func (v *tracedValidator) Validate(rec validate.Record) ([]byte, error) {
	start := v.tr.begin()
	doc, err := v.inner.Validate(rec)
	if start >= 0 {
		v.stats.add(start, v.tr.now(), len(doc))
		v.tr.end(layerValidate, opValidate, v.slotOf(rec.BasePath), start, len(doc))
		v.mu.Lock()
		if len(v.samples) < replaySamples {
			if body, eerr := validate.AppendRecord(nil, &rec); eerr == nil {
				v.samples = append(v.samples, body)
			}
		}
		v.mu.Unlock()
	}
	return doc, err
}

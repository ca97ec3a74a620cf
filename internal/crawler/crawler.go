// Package crawler implements Xtract's parallel crawler: a pool of worker
// threads draining a shared directory queue, listing each
// directory on the remote store, applying a grouping function to the
// files found, packaging overlapping groups into min-transfer families,
// and handing each directory's families to a sink — in process, the
// Xtract service's bounded hand-off; across a process boundary, a queue
// of serialized family objects (paper §4.1, evaluated in Figure 4).
package crawler

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xtract/internal/cache"
	"xtract/internal/clock"
	"xtract/internal/family"
	"xtract/internal/queue"
	"xtract/internal/store"
)

// GroupingFunc assigns the files of one directory, in path order, to
// groups, and leaves them in that order (the crawler sorts a group that
// breaks it). Grouping functions consider only crawl-time metadata
// (names, extensions, paths, sizes) — never file contents — so the
// crawler stays lightweight.
type GroupingFunc func(dir string, files []store.FileInfo) []family.Group

// Stats summarizes one crawl; every field counts that crawl alone.
type Stats struct {
	DirsListed      int64
	FilesSeen       int64
	GroupsFormed    int64
	FamiliesEmitted int64
	BytesSeen       int64
	ListErrors      int64
	// FilesHashed counts files read and hashed for their fingerprint,
	// HashesReused files whose remembered hash the store's change token
	// vouched for, and FingerprintErrors files whose read failed, leaving
	// them without a hash and their groups uncacheable.
	FilesHashed       int64
	HashesReused      int64
	FingerprintErrors int64
	// RateLimited counts listings retried after a rate-limit rejection.
	RateLimited int64
}

// Add accumulates another crawl's statistics into s.
func (s *Stats) Add(o Stats) {
	s.DirsListed += o.DirsListed
	s.FilesSeen += o.FilesSeen
	s.GroupsFormed += o.GroupsFormed
	s.FamiliesEmitted += o.FamiliesEmitted
	s.BytesSeen += o.BytesSeen
	s.ListErrors += o.ListErrors
	s.FilesHashed += o.FilesHashed
	s.HashesReused += o.HashesReused
	s.FingerprintErrors += o.FingerprintErrors
	s.RateLimited += o.RateLimited
}

// Totals are running sums over every crawl that shares them: the
// process-wide xtract_crawl_* counters, as against one crawl's Stats. The
// zero value is ready, and a nil *Totals counts nothing.
type Totals struct {
	DirsListed, FilesSeen, GroupsFormed, FamiliesEmitted, BytesSeen,
	ListErrors, FilesHashed, HashesReused, FingerprintErrors atomic.Int64
}

func (t *Totals) add(d Stats) {
	if t == nil {
		return
	}
	t.DirsListed.Add(d.DirsListed)
	t.FilesSeen.Add(d.FilesSeen)
	t.GroupsFormed.Add(d.GroupsFormed)
	t.FamiliesEmitted.Add(d.FamiliesEmitted)
	t.BytesSeen.Add(d.BytesSeen)
	t.ListErrors.Add(d.ListErrors)
	t.FilesHashed.Add(d.FilesHashed)
	t.HashesReused.Add(d.HashesReused)
	t.FingerprintErrors.Add(d.FingerprintErrors)
}

// Sink receives one directory's finished families and reports how many
// of them it took. It may block — that is the crawl's back-pressure — and
// must return once ctx ends.
type Sink func(ctx context.Context, fams []family.Family) int

// Crawler traverses a store and hands the families it forms to a sink.
type Crawler struct {
	// Store is the storage system to crawl.
	Store store.Store
	// Workers bounds the concurrent crawl threads, which start as
	// directories queue.
	Workers int
	// Grouper assigns directory files to groups.
	Grouper GroupingFunc
	// MaxFamilySize is the min-transfers family size bound s.
	MaxFamilySize int
	// Seed drives the randomized min-cut for reproducible crawls.
	Seed int64
	// Out receives each directory's families, one call per directory.
	Out Sink
	// UseMinTransfers toggles the min-transfers packaging; when false,
	// each group ships as its own family (the Figure 7 baseline).
	UseMinTransfers bool
	// Clock paces rate-limit backoff (default: real clock).
	Clock clock.Clock
	// Fingerprint makes the crawler record each file's content hash
	// (ExactKey) into family.FileMeta.ContentHash, the key material
	// for the extraction result cache. This is the one deliberate
	// exception to "the crawler never reads contents": a file is read and
	// hashed once per version when Hashes is set and the store issues
	// change tokens (store.FileInfo.Token), and on every crawl otherwise.
	// A file that cannot be read keeps an empty hash, stays uncacheable
	// and is counted in FingerprintErrors.
	Fingerprint bool
	// Hashes is the fingerprint memo (nil-safe): consulted per listed
	// file before reading it, told of every hash computed.
	Hashes *cache.Cache

	// Totals, when set, also receives every directory's counts as it is
	// finished, so a service sees its crawls progress.
	Totals *Totals
}

// NewTo returns a crawler with sensible defaults (up to 16 workers,
// min-transfers on, family size 16) feeding out.
func NewTo(s store.Store, grouper GroupingFunc, out Sink) *Crawler {
	return &Crawler{
		Store:           s,
		Workers:         16,
		Grouper:         grouper,
		MaxFamilySize:   16,
		Seed:            1,
		Out:             out,
		UseMinTransfers: true,
		Clock:           clock.NewReal(),
	}
}

// New is NewTo for a crawler whose consumer is in another process: each
// family crosses as its family.AppendFamily body, one SendBatch per
// directory.
func New(s store.Store, grouper GroupingFunc, out *queue.Queue) *Crawler {
	return NewTo(s, grouper, func(_ context.Context, fams []family.Family) int {
		// Bodies share one buffer: the queue copies each on send.
		var buf []byte
		bodies := make([][]byte, 0, len(fams))
		for i := range fams {
			start := len(buf)
			buf = family.AppendFamily(buf, &fams[i])
			bodies = append(bodies, buf[start:])
		}
		out.SendBatch(bodies)
		return len(bodies)
	})
}

// dirQueue is one crawl's shared work queue of directories, with
// termination detection: the crawl is done when no items remain and no
// worker still holds one. It starts the crawl's workers itself, up to
// limit: one for each root, then one more for each push that leaves more
// directories queued than workers free to take them, so a one-directory
// crawl runs one worker. Worker w draws from seed
// c.Seed+w. The workers list under ctx and add each directory's counts
// to total.
type dirQueue struct {
	mu          sync.Mutex
	cond        sync.Cond
	items       []string
	outstanding int
	closed      bool

	c                    *Crawler
	ctx                  context.Context
	limit, started, busy int
	wg                   sync.WaitGroup
	total                Stats
}

// newDirQueue returns c's queue for one crawl under ctx, which starts up
// to limit workers; limit 0 starts none.
func newDirQueue(c *Crawler, ctx context.Context, limit int) *dirQueue {
	q := &dirQueue{c: c, ctx: ctx, limit: limit}
	q.cond.L = &q.mu
	return q
}

// start queues the crawl's roots and starts a worker for each, up to
// limit. Every root is queued before any worker can take one: a worker
// that drained the queue between two roots would end, and the crawl with
// it, before the next root was listed.
func (q *dirQueue) start(roots []string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, r := range roots {
		q.items = append(q.items, store.Clean(r))
	}
	q.outstanding += len(roots)
	for q.started < min(len(roots), q.limit) {
		q.spawnLocked()
	}
}

// push adds a directory, incrementing the outstanding count, and starts a
// worker for it when every started one is busy. Only a busy worker
// pushes, so the crawl cannot drain while it does.
func (q *dirQueue) push(dir string) {
	q.mu.Lock()
	q.items = append(q.items, dir)
	q.outstanding++
	if len(q.items) > q.started-q.busy && q.started < q.limit {
		q.spawnLocked()
	}
	q.cond.Signal()
	q.mu.Unlock()
}

// spawnLocked starts worker q.started. Callers hold q.mu.
func (q *dirQueue) spawnLocked() {
	q.wg.Add(1)
	go q.work(q.c.Seed + int64(q.started))
	q.started++
}

// pop blocks until a directory is available or the crawl has drained.
func (q *dirQueue) pop() (string, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && q.outstanding > 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		return "", false
	}
	dir := q.items[0]
	q.items = q.items[1:]
	q.busy++
	return dir, true
}

// done marks one popped directory fully processed, adding its counts d.
func (q *dirQueue) done(d Stats) {
	q.mu.Lock()
	q.total.Add(d)
	q.busy--
	q.outstanding--
	if q.outstanding == 0 {
		q.cond.Broadcast()
	}
	q.mu.Unlock()
}

// close aborts the crawl, waking all waiting workers.
func (q *dirQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// Crawl traverses the given roots with up to Workers crawl workers,
// started as directories queue, and returns aggregate statistics once
// every reachable directory has been listed (or ctx is cancelled).
func (c *Crawler) Crawl(ctx context.Context, roots []string) (Stats, error) {
	if c.Grouper == nil {
		return Stats{}, fmt.Errorf("crawler: nil grouping function")
	}
	q := newDirQueue(c, ctx, max(c.Workers, 1))
	q.start(roots)
	q.wg.Wait()
	if err := ctx.Err(); err != nil {
		return Stats{}, err
	}
	return q.total, nil
}

// work is one crawl worker: it lists directories off the queue until the
// crawl drains or ctx ends. A worker that finds ctx ended closes the
// queue, so that the workers waiting on it end too: every wait has a
// busy worker behind it, and a busy worker's directory ends once ctx
// does.
func (q *dirQueue) work(seed int64) {
	defer q.wg.Done()
	c := q.c
	rng := rand.New(&lazySource{seed: seed})
	// The packer's scratch serves this worker's directories, and no longer
	// than this crawl.
	var pk family.Packer
	for {
		dir, ok := q.pop()
		if !ok {
			return
		}
		// A cancelled crawl lists nothing more, backlog or not.
		if q.ctx.Err() != nil {
			q.close()
			return
		}
		d := c.processDir(q.ctx, dir, q, rng, &pk)
		c.Totals.add(d)
		q.done(d)
	}
}

// lazySource is math/rand's source for seed, built on its first draw:
// seeding one costs more than most crawls spend on Karger splits, and a
// worker whose directories never need one never draws. The draws are the
// ones rand.NewSource(seed) would give.
type lazySource struct {
	seed int64
	src  rand.Source64
}

func (s *lazySource) get() rand.Source64 {
	if s.src == nil {
		s.src = rand.NewSource(s.seed).(rand.Source64)
	}
	return s.src
}

func (s *lazySource) Int63() int64    { return s.get().Int63() }
func (s *lazySource) Uint64() uint64  { return s.get().Uint64() }
func (s *lazySource) Seed(seed int64) { s.seed, s.src = seed, nil }

// A rate-limited listing (the Drive API's token bucket) is retried up to
// rateLimitRetries times, each retry backing off twice as long as the one
// before, from rateLimitBackoff.
const (
	rateLimitRetries = 4
	rateLimitBackoff = 100 * time.Millisecond
)

// listWithBackoff lists a directory, retrying rate-limit rejections with
// exponential backoff, each retry counted in d.
func (c *Crawler) listWithBackoff(dir string, d *Stats) ([]store.FileInfo, error) {
	backoff := rateLimitBackoff
	for attempt := 0; ; attempt++ {
		infos, err := c.Store.List(dir)
		if err == nil || !errors.Is(err, store.ErrRateLimit) || attempt >= rateLimitRetries {
			return infos, err
		}
		d.RateLimited++
		c.Clock.Sleep(backoff)
		backoff *= 2
	}
}

// ExactKey returns the content hash of a byte sequence, hex SHA-256: a
// file's fingerprint.
func ExactKey(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// fingerprint returns the content hash of a listed file: the remembered
// one when the store's change token vouches for it, else a fresh read
// and hash, which the memo is told about. "" means the read failed.
// Which of the three it was is counted in d.
func (c *Crawler) fingerprint(fi store.FileInfo, d *Stats) string {
	name := c.Store.Name()
	if h, ok := c.Hashes.FileHash(name, fi.Path, fi.Token, fi.Size); ok {
		d.HashesReused++
		return h
	}
	data, err := c.Store.Read(fi.Path)
	if err != nil {
		d.FingerprintErrors++
		return ""
	}
	h := ExactKey(data)
	c.Hashes.RecordFileHash(name, fi.Path, fi.Token, fi.Size, h)
	d.FilesHashed++
	return h
}

// processDir lists one directory, queues subdirectories, groups files,
// and hands the directory's families to the sink. It returns what the
// directory adds to the crawl's Stats: each event is counted here, once.
func (c *Crawler) processDir(ctx context.Context, dir string, dq *dirQueue, rng *rand.Rand, pk *family.Packer) (d Stats) {
	infos, err := c.listWithBackoff(dir, &d)
	if err != nil {
		d.ListErrors++
		return d
	}
	d.DirsListed++
	// Every store builds each listing afresh, so it is filtered in place.
	files := infos[:0]
	for _, fi := range infos {
		if fi.IsDir {
			dq.push(fi.Path)
			continue
		}
		files = append(files, fi)
		d.BytesSeen += fi.Size
	}
	if len(files) == 0 {
		return d
	}
	d.FilesSeen = int64(len(files))
	groups := c.Grouper(dir, files)
	if len(groups) == 0 {
		return d
	}
	// Every execution of a step reads its group's files in path order,
	// from this one slice and without writing it: a grouper that breaks
	// the order gets a sorted copy, here and only here.
	for i := range groups {
		if g := &groups[i]; !slices.IsSorted(g.Files) {
			g.Files = slices.Clone(g.Files)
			slices.Sort(g.Files)
		}
	}
	d.GroupsFormed = int64(len(groups))

	var fams []family.Family
	if c.UseMinTransfers {
		fams = pk.Pack(groups, c.MaxFamilySize, 1, rng)
	} else {
		fams = family.Naive(groups)
	}
	// One record per listed file, in path order, as a listing comes in
	// name order (store.Store.List); a family takes a window of them, or
	// a copy where its files are not a run.
	metas := make([]family.FileMeta, len(files))
	for i, fi := range files {
		metas[i] = family.FileMeta{Path: fi.Path, Size: fi.Size, Extension: fi.Extension, MimeType: fi.MimeType}
		if c.Fingerprint {
			metas[i].ContentHash = c.fingerprint(fi, &d)
		}
	}
	name := c.Store.Name()
	ids := newIDSheet([]string{name, ":", dir}, "#", len(fams), nil)
	for i := range fams {
		fam := &fams[i]
		fam.ID = ids.number(i)
		fam.Store = name
		fam.BasePath = dir
		fam.FileMeta = familyMeta(fam.Groups, metas)
	}
	if len(fams) == 0 {
		return d
	}
	d.FamiliesEmitted = int64(c.Out(ctx, fams))
	return d
}

// familyMeta returns the records of every file groups name, once each,
// in path order, out of metas, the directory's records in path order: a
// window of metas when the files are a run of it — one file, a
// whole-directory group, or a VASP calculation with the structure
// analysis that repeats its POSCAR — else a copy, with a path-only
// record for a file the listing lacks.
func familyMeta(groups []family.Group, metas []family.FileMeta) []family.FileMeta {
	byPath := func(m family.FileMeta, p string) int { return strings.Compare(m.Path, p) }
	lo, n, named, run := 0, 0, 0, true
	for _, g := range groups {
		for _, f := range g.Files {
			named++
			if n == 0 {
				lo, run = slices.BinarySearchFunc(metas, f, byPath)
			} else if run {
				if _, seen := slices.BinarySearchFunc(metas[lo:lo+n], f, byPath); seen {
					continue // a file the window already holds
				}
			}
			run = run && lo+n < len(metas) && metas[lo+n].Path == f
			n++
		}
	}
	if n == 0 || run {
		return metas[lo : lo+n : lo+n]
	}
	out := make([]family.FileMeta, 0, named)
	for _, g := range groups {
		for _, f := range g.Files {
			m := family.FileMeta{Path: f}
			if i, ok := slices.BinarySearchFunc(metas, f, byPath); ok {
				m = metas[i]
			}
			out = append(out, m)
		}
	}
	slices.SortFunc(out, func(a, b family.FileMeta) int { return byPath(a, b.Path) })
	return slices.CompactFunc(out, func(a, b family.FileMeta) bool { return a.Path == b.Path })
}

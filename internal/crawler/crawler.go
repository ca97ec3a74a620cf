// Package crawler implements Xtract's elastically parallel crawler: a
// pool of worker threads draining a shared directory queue, listing each
// directory on the remote store, applying a grouping function to the
// files found, packaging overlapping groups into min-transfer families,
// and handing each directory's families to a sink — in process, the
// Xtract service's bounded hand-off; across a process boundary, a queue
// of serialized family objects (paper §4.1, evaluated in Figure 4).
package crawler

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"xtract/internal/cache"
	"xtract/internal/clock"
	"xtract/internal/dedup"
	"xtract/internal/family"
	"xtract/internal/queue"
	"xtract/internal/store"
)

// GroupingFunc assigns the files of one directory to groups. Grouping
// functions consider only crawl-time metadata (names, extensions, paths,
// sizes) — never file contents — so the crawler stays lightweight.
type GroupingFunc func(dir string, files []store.FileInfo) []family.Group

// Stats summarizes one crawl; every field counts that crawl alone.
type Stats struct {
	DirsListed      int64
	FilesSeen       int64
	GroupsFormed    int64
	FamiliesEmitted int64
	BytesSeen       int64
	ListErrors      int64
	// EncodeErrors counts families the sink did not take: the queue sink
	// drops one whose metadata cannot be serialized.
	EncodeErrors int64
	// FilesHashed counts files read and hashed for their fingerprint,
	// HashesReused files whose remembered hash the store's change token
	// vouched for, and FingerprintErrors files whose read failed, leaving
	// them without a hash and their groups uncacheable.
	FilesHashed       int64
	HashesReused      int64
	FingerprintErrors int64
	// RateLimited counts listings retried after a rate-limit rejection,
	// WorkersSpawned workers added by elastic scaling.
	RateLimited    int64
	WorkersSpawned int64
}

// Add accumulates another crawl's statistics into s.
func (s *Stats) Add(o Stats) {
	s.DirsListed += o.DirsListed
	s.FilesSeen += o.FilesSeen
	s.GroupsFormed += o.GroupsFormed
	s.FamiliesEmitted += o.FamiliesEmitted
	s.BytesSeen += o.BytesSeen
	s.ListErrors += o.ListErrors
	s.EncodeErrors += o.EncodeErrors
	s.FilesHashed += o.FilesHashed
	s.HashesReused += o.HashesReused
	s.FingerprintErrors += o.FingerprintErrors
	s.RateLimited += o.RateLimited
	s.WorkersSpawned += o.WorkersSpawned
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
	// Workers is the number of concurrent crawl threads.
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
	// MaxWorkers enables elastic scaling: when the directory backlog
	// exceeds ScaleBacklog×(current workers), additional crawl workers
	// start, up to this bound (the paper's crawler "starts new EC2
	// resources ... if current instances are overloaded"). 0 disables.
	MaxWorkers int
	// ScaleBacklog is the backlog-per-worker ratio that triggers scaling
	// (default 4).
	ScaleBacklog int
	// RateLimitRetries bounds retries of a rate-limited listing (the
	// Google Drive API path); each retry backs off exponentially from
	// RateLimitBackoff.
	RateLimitRetries int
	RateLimitBackoff time.Duration
	// Fingerprint makes the crawler record each file's content hash
	// (dedup.ExactKey) into family.FileMeta.ContentHash, the key material
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

// NewTo returns a crawler with sensible defaults (16 workers,
// min-transfers on, family size 16) feeding out.
func NewTo(s store.Store, grouper GroupingFunc, out Sink) *Crawler {
	return &Crawler{
		Store:            s,
		Workers:          16,
		Grouper:          grouper,
		MaxFamilySize:    16,
		Seed:             1,
		Out:              out,
		UseMinTransfers:  true,
		Clock:            clock.NewReal(),
		RateLimitRetries: 4,
		RateLimitBackoff: 100 * time.Millisecond,
	}
}

// New is NewTo for a crawler whose consumer is in another process: each
// family crosses as its family.AppendFamily body, one SendBatch per
// directory. A family whose metadata JSON cannot carry is dropped, which
// Stats.EncodeErrors counts.
func New(s store.Store, grouper GroupingFunc, out *queue.Queue) *Crawler {
	return NewTo(s, grouper, func(_ context.Context, fams []family.Family) int {
		// Bodies share one buffer: the queue copies each on send.
		var buf []byte
		bodies := make([][]byte, 0, len(fams))
		for i := range fams {
			start := len(buf)
			var err error
			if buf, err = family.AppendFamily(buf, &fams[i]); err != nil {
				buf = buf[:start]
				continue
			}
			bodies = append(bodies, buf[start:])
		}
		if len(bodies) > 0 {
			out.SendBatch(bodies)
		}
		return len(bodies)
	})
}

// dirQueue is the shared work queue of directories with termination
// detection: the crawl is done when no items remain and no worker still
// holds one.
type dirQueue struct {
	mu          sync.Mutex
	cond        *sync.Cond
	items       []string
	outstanding int
	closed      bool
}

func newDirQueue() *dirQueue {
	q := &dirQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push adds a directory, incrementing the outstanding count.
func (q *dirQueue) push(dir string) {
	q.mu.Lock()
	q.items = append(q.items, dir)
	q.outstanding++
	q.cond.Broadcast()
	q.mu.Unlock()
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
	return dir, true
}

// done marks one popped directory fully processed.
func (q *dirQueue) done() {
	q.mu.Lock()
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

// Crawl traverses the given roots with the configured worker pool and
// returns aggregate statistics once every reachable directory has been
// listed (or ctx is cancelled).
func (c *Crawler) Crawl(ctx context.Context, roots []string) (Stats, error) {
	if c.Grouper == nil {
		return Stats{}, fmt.Errorf("crawler: nil grouping function")
	}
	workers := c.Workers
	if workers < 1 {
		workers = 1
	}
	dq := newDirQueue()
	for _, r := range roots {
		dq.push(store.Clean(r))
	}
	// Stop the queue if the context dies.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			dq.close()
		case <-stop:
		}
	}()

	var wg sync.WaitGroup
	var mu sync.Mutex // guards total
	var total Stats
	spawn := func(seed int64) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				dir, ok := dq.pop()
				// A cancelled crawl lists nothing more, backlog or not.
				if !ok || ctx.Err() != nil {
					return
				}
				d := c.processDir(ctx, dir, dq, rng)
				mu.Lock()
				total.Add(d)
				mu.Unlock()
				c.Totals.add(d)
				dq.done()
			}
		}()
	}
	for w := 0; w < workers; w++ {
		spawn(c.Seed + int64(w))
	}
	// Elastic scaling: add workers while the backlog outruns the pool.
	if c.MaxWorkers > workers {
		ratio := c.ScaleBacklog
		if ratio < 1 {
			ratio = 4
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			current := workers
			for current < c.MaxWorkers {
				dq.mu.Lock()
				backlog := len(dq.items)
				outstanding := dq.outstanding
				closed := dq.closed
				dq.mu.Unlock()
				if closed || (backlog == 0 && outstanding == 0) {
					return
				}
				if backlog > ratio*current {
					spawn(c.Seed + int64(current) + 1000)
					current++
					mu.Lock()
					total.WorkersSpawned++
					mu.Unlock()
					continue
				}
				select {
				case <-ctx.Done():
					return
				case <-c.Clock.After(time.Millisecond):
				}
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return Stats{}, err
	}
	return total, nil
}

// listWithBackoff lists a directory, retrying rate-limit rejections
// (e.g., the Drive API's token bucket) with exponential backoff, each
// retry counted in d.
func (c *Crawler) listWithBackoff(dir string, d *Stats) ([]store.FileInfo, error) {
	backoff := c.RateLimitBackoff
	for attempt := 0; ; attempt++ {
		infos, err := c.Store.List(dir)
		if err == nil || !errors.Is(err, store.ErrRateLimit) || attempt >= c.RateLimitRetries {
			return infos, err
		}
		d.RateLimited++
		c.Clock.Sleep(backoff)
		backoff *= 2
	}
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
	h := dedup.ExactKey(data)
	c.Hashes.RecordFileHash(name, fi.Path, fi.Token, fi.Size, h)
	d.FilesHashed++
	return h
}

// processDir lists one directory, queues subdirectories, groups files,
// and hands the directory's families to the sink. It returns what the
// directory adds to the crawl's Stats: each event is counted here, once.
func (c *Crawler) processDir(ctx context.Context, dir string, dq *dirQueue, rng *rand.Rand) (d Stats) {
	infos, err := c.listWithBackoff(dir, &d)
	if err != nil {
		d.ListErrors++
		return d
	}
	d.DirsListed++
	var files []store.FileInfo
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
	d.GroupsFormed = int64(len(groups))

	var fams []family.Family
	if c.UseMinTransfers {
		fams = family.MinTransfers(groups, c.MaxFamilySize, rng)
	} else {
		fams = family.Naive(groups)
	}
	metaOf := make(map[string]family.FileMeta, len(files))
	for _, fi := range files {
		fm := family.FileMeta{Size: fi.Size, Extension: fi.Extension, MimeType: fi.MimeType}
		if c.Fingerprint {
			fm.ContentHash = c.fingerprint(fi, &d)
		}
		metaOf[fi.Path] = fm
	}
	for i := range fams {
		fam := &fams[i]
		fam.ID = fmt.Sprintf("%s:%s#%d", c.Store.Name(), dir, i)
		fam.Store = c.Store.Name()
		fam.BasePath = dir
		fam.FileMeta = make(map[string]family.FileMeta, len(fam.Files))
		for _, g := range fam.Groups {
			for _, f := range g.Files {
				fam.FileMeta[f] = metaOf[f]
			}
		}
	}
	if len(fams) == 0 {
		return d
	}
	d.FamiliesEmitted = int64(c.Out(ctx, fams))
	d.EncodeErrors = int64(len(fams)) - d.FamiliesEmitted
	return d
}

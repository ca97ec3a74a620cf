// Package cache implements the extraction result cache that makes
// re-crawls of a grown-but-mostly-unchanged repository incremental: the
// metadata produced by one (group content, extractor, extractor version)
// execution is remembered so a later run over byte-identical content
// replays the stored result instead of dispatching a FaaS task. The key
// is content-addressed — it reuses the internal/dedup content hashing the
// crawler records as per-file fingerprints — so a repository re-crawled
// without content changes hits on every step, while any content or
// extractor-version change misses and re-extracts.
//
// The cache is two layers deep: a bounded in-memory LRU for the hot
// working set, fronting an optional persistent layer backed by any
// store.Store (typically the user's destination store), so warm state
// survives service restarts. A corrupted or mismatched persistent entry
// is treated as a miss and overwritten on the next write-back, never
// trusted.
package cache

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"xtract/internal/fastjson"
	"xtract/internal/store"
)

// Key identifies one cached extraction result.
type Key struct {
	// ContentHash fingerprints the group's file contents (see
	// GroupFingerprint).
	ContentHash string
	// Extractor is the extractor name.
	Extractor string
	// Version is the extractor's version stamp; bumping an extractor's
	// version invalidates every entry it produced.
	Version string
}

// Entry is the persistent on-store representation of one cached result.
// The identity fields are stored alongside the metadata so a read can
// verify the entry actually answers the key it was looked up under —
// a truncated, corrupted, or foreign file is a miss, not an answer.
type Entry struct {
	ContentHash string       `json:"content_hash"`
	Extractor   string       `json:"extractor"`
	Version     string       `json:"version"`
	Metadata    fastjson.Raw `json:"metadata"`
}

// Stats is a point-in-time snapshot of cache effectiveness.
type Stats struct {
	// Hits counts lookups answered from either layer.
	Hits int64 `json:"hits"`
	// Misses counts lookups answered by neither layer.
	Misses int64 `json:"misses"`
	// Evictions counts in-memory entries displaced by the LRU bound.
	Evictions int64 `json:"evictions"`
	// PersistHits counts hits served by the persistent layer (a subset
	// of Hits; these were promoted into memory).
	PersistHits int64 `json:"persist_hits"`
	// PersistErrors counts persistent entries rejected as corrupted or
	// mismatched, plus failed write-backs.
	PersistErrors int64 `json:"persist_errors"`
	// Entries is the current in-memory entry count.
	Entries int `json:"entries"`
	// Capacity is the in-memory LRU bound (0 = unbounded).
	Capacity int `json:"capacity"`
}

// Cache is the two-layer extraction result cache. Safe for concurrent
// use: several job pumps may share one cache.
type Cache struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recently used
	entries  map[Key]*list.Element

	persist store.Store // nil disables the persistent layer
	prefix  string

	onEvict func()

	hits, misses, evictions, persistHits, persistErrors int64
}

// memEntry holds a step's metadata as the worker encoded it. Get hands
// out this very slice, so every holder treats it as read-only.
type memEntry struct {
	key  Key
	body fastjson.Raw
}

// New returns a memory-only cache bounded to capacity entries
// (capacity <= 0 means unbounded).
func New(capacity int) *Cache {
	return &Cache{
		capacity: capacity,
		order:    list.New(),
		entries:  make(map[Key]*list.Element),
	}
}

// NewPersistent returns a cache whose misses fall through to (and whose
// writes replicate into) JSON entries under prefix on st.
func NewPersistent(capacity int, st store.Store, prefix string) *Cache {
	c := New(capacity)
	c.persist = st
	c.prefix = store.Clean(prefix)
	return c
}

// GroupFingerprint derives the content-addressed identity of a group
// from its members' crawl-time content hashes: the digest of the sorted
// (path, content hash) pairs. The boolean is false when any member lacks
// a content hash (fingerprinting disabled or unreadable at crawl time),
// in which case the group is uncacheable.
func GroupFingerprint(files map[string]string) (string, bool) {
	if len(files) == 0 {
		return "", false
	}
	paths := make([]string, 0, len(files))
	for p, h := range files {
		if h == "" {
			return "", false
		}
		paths = append(paths, p)
	}
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		h.Write([]byte(p))
		h.Write([]byte{0})
		h.Write([]byte(files[p]))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)), true
}

// entryPath is where a key's persistent entry lives. Extractor and
// version are sanitized into the path; the content hash is already hex.
func (c *Cache) entryPath(k Key) string {
	return fmt.Sprintf("%s/%s/%s/%s.json",
		c.prefix, sanitize(k.Extractor), sanitize(k.Version), k.ContentHash)
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	if len(out) == 0 {
		return "_"
	}
	return string(out)
}

// Get looks the key up in memory, then in the persistent layer. The
// returned bytes are the cache's own and must not be modified.
func (c *Cache) Get(k Key) (fastjson.Raw, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	if el, ok := c.entries[k]; ok {
		c.order.MoveToFront(el)
		body := el.Value.(*memEntry).body
		c.hits++
		c.mu.Unlock()
		return body, true
	}
	c.mu.Unlock()

	if c.persist == nil {
		c.miss()
		return nil, false
	}
	data, err := c.persist.Read(c.entryPath(k))
	if err != nil {
		c.miss()
		return nil, false
	}
	var ent Entry
	if err := json.Unmarshal(data, &ent); err != nil ||
		ent.ContentHash != k.ContentHash || ent.Extractor != k.Extractor ||
		ent.Version != k.Version || !fastjson.IsObject(ent.Metadata) {
		// Corrupted or mismatched entry: a miss, never an answer.
		c.mu.Lock()
		c.persistErrors++
		c.misses++
		c.mu.Unlock()
		return nil, false
	}
	c.mu.Lock()
	c.hits++
	c.persistHits++
	c.putLocked(k, ent.Metadata)
	c.mu.Unlock()
	return ent.Metadata, true
}

func (c *Cache) miss() {
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
}

// Put encodes a metadata dictionary and stores it, for callers that hold
// a map. Metadata that cannot be serialized, or is nil, is not cached.
func (c *Cache) Put(k Key, metadata map[string]interface{}) {
	if body, err := fastjson.AppendCanonical(nil, metadata); err == nil {
		c.PutRaw(k, body)
	}
}

// PutRaw stores a step's encoded metadata object under the key, in
// memory and (when configured) write-through to the persistent layer.
// The cache keeps the slice it is given.
func (c *Cache) PutRaw(k Key, metadata fastjson.Raw) {
	if c == nil || !fastjson.IsObject(metadata) {
		return
	}
	c.mu.Lock()
	c.putLocked(k, metadata)
	c.mu.Unlock()
	if c.persist != nil {
		data, err := json.Marshal(Entry{
			ContentHash: k.ContentHash,
			Extractor:   k.Extractor,
			Version:     k.Version,
			Metadata:    metadata,
		})
		if err == nil {
			err = c.persist.Write(c.entryPath(k), data)
		}
		if err != nil {
			c.mu.Lock()
			c.persistErrors++
			c.mu.Unlock()
		}
	}
}

func (c *Cache) putLocked(k Key, body fastjson.Raw) {
	if el, ok := c.entries[k]; ok {
		el.Value.(*memEntry).body = body
		c.order.MoveToFront(el)
		return
	}
	c.entries[k] = c.order.PushFront(&memEntry{key: k, body: body})
	for c.capacity > 0 && c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*memEntry).key)
		c.evictions++
		if c.onEvict != nil {
			c.onEvict()
		}
	}
}

// SetEvictionHook installs fn, invoked once per LRU eviction while the
// cache lock is held: keep it cheap and never call back into the cache.
// The service layer uses it to mirror evictions into a live metric.
func (c *Cache) SetEvictionHook(fn func()) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.onEvict = fn
	c.mu.Unlock()
}

// Len reports the in-memory entry count.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		PersistHits:   c.persistHits,
		PersistErrors: c.persistErrors,
		Entries:       c.order.Len(),
		Capacity:      c.capacity,
	}
}

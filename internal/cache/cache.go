// Package cache implements the extraction result cache that makes
// re-crawls of a grown-but-mostly-unchanged repository incremental: the
// metadata produced by one (group content, extractor, extractor version)
// execution is remembered so a later run over byte-identical content
// replays the stored result instead of dispatching a FaaS task. The key
// is content-addressed — it builds on the content hash the crawler
// records as per-file fingerprints (crawler.ExactKey) — so a repository re-crawled
// without content changes hits on every step, while any content or
// extractor-version change misses and re-extracts.
//
// The cache is a bounded in-memory LRU over the hot working set; a
// restarted service starts it cold.
package cache

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"sort"
	"sync"

	"xtract/internal/fastjson"
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

// Stats is a point-in-time snapshot of cache effectiveness.
type Stats struct {
	// Hits counts lookups answered from memory.
	Hits int64 `json:"hits"`
	// Misses counts lookups that found no entry.
	Misses int64 `json:"misses"`
	// Evictions counts in-memory entries displaced by the LRU bound.
	Evictions int64 `json:"evictions"`
	// Entries is the current in-memory entry count.
	Entries int `json:"entries"`
	// Capacity is the in-memory LRU bound (0 = unbounded).
	Capacity int `json:"capacity"`
	// FileHashes counts files crawls read and hashed to fingerprint
	// them; FileHashHits counts files whose hash was reused unread
	// because the store's change token vouched for them.
	FileHashes   int64 `json:"file_hashes"`
	FileHashHits int64 `json:"file_hash_hits"`
}

// Cache is the extraction result cache. Safe for concurrent
// use: several job pumps may share one cache.
type Cache struct {
	mu       sync.Mutex
	capacity int
	order    *list.List // front = most recently used
	entries  map[Key]*list.Element

	hits, misses, evictions int64

	// The fingerprint memo has its own lock: crawlers use it while the
	// pump uses the entries above.
	fileMu                   sync.Mutex
	files                    map[fileKey]fileHash
	maxFiles                 int
	fileHashes, fileHashHits int64
}

// maxFileHashes bounds the fingerprint memo (roughly 250 bytes a file).
const maxFileHashes = 1 << 18

// fileKey names one file of one store in the fingerprint memo.
type fileKey struct{ store, path string }

// fileHash is what the memo knows about a file: the content hash of the
// version the store listed under this change token and size.
type fileHash struct {
	token uint64
	size  int64
	hash  string
}

// memEntry holds a step's metadata as the worker encoded it. Get hands
// out this very slice, so every holder treats it as read-only.
type memEntry struct {
	key  Key
	body fastjson.Raw
}

// New returns a cache bounded to capacity entries (capacity <= 0 means
// unbounded).
func New(capacity int) *Cache {
	return &Cache{
		capacity: capacity,
		order:    list.New(),
		entries:  make(map[Key]*list.Element),
		files:    make(map[fileKey]fileHash),
		maxFiles: maxFileHashes,
	}
}

// GroupFingerprint derives the content-addressed identity of a group
// from its members' crawl-time content hashes: the digest of the sorted
// (path, content hash) pairs. The boolean is false when any member lacks
// a content hash (fingerprinting disabled or unreadable at crawl time),
// in which case the group is uncacheable.
func GroupFingerprint(paths []string, hashOf func(path string) string) (string, bool) {
	if len(paths) == 0 {
		return "", false
	}
	if !sort.StringsAreSorted(paths) {
		paths = append([]string(nil), paths...)
		sort.Strings(paths)
	}
	buf := make([]byte, 0, 1024)
	for i, p := range paths {
		if i > 0 && p == paths[i-1] {
			continue // a path counts once, as when this hashed a map
		}
		h := hashOf(p)
		if h == "" {
			return "", false
		}
		buf = append(append(buf, p...), 0)
		buf = append(append(buf, h...), '\n')
	}
	sum := sha256.Sum256(buf)
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:]), true
}

// Get looks the key up. The returned bytes are the cache's own and must
// not be modified.
func (c *Cache) Get(k Key) (fastjson.Raw, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		c.misses++
		return nil, false
	}
	c.order.MoveToFront(el)
	c.hits++
	return el.Value.(*memEntry).body, true
}

// Put encodes a metadata dictionary and stores it, for callers that hold
// a map. Metadata that cannot be serialized, or is nil, is not cached.
func (c *Cache) Put(k Key, metadata map[string]interface{}) {
	if body, err := fastjson.AppendCanonical(nil, metadata); err == nil {
		c.PutRaw(k, body)
	}
}

// PutRaw stores a step's encoded metadata object under the key. The
// cache keeps the slice it is given.
func (c *Cache) PutRaw(k Key, metadata fastjson.Raw) {
	if c == nil || !fastjson.IsObject(metadata) {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		el.Value.(*memEntry).body = metadata
		c.order.MoveToFront(el)
		return
	}
	c.entries[k] = c.order.PushFront(&memEntry{key: k, body: metadata})
	for c.capacity > 0 && c.order.Len() > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*memEntry).key)
		c.evictions++
	}
}

// FileHash returns the content hash recorded for the file when the
// store still lists it under the same change token and size, which a
// token-issuing store guarantees means the same bytes. A zero token is
// never a match.
func (c *Cache) FileHash(storeName, path string, token uint64, size int64) (string, bool) {
	if c == nil || token == 0 {
		return "", false
	}
	c.fileMu.Lock()
	defer c.fileMu.Unlock()
	fh, ok := c.files[fileKey{storeName, path}]
	if !ok || fh.token != token || fh.size != size {
		return "", false
	}
	c.fileHashHits++
	return fh.hash, true
}

// RecordFileHash notes that the file's content was read and hashed, and
// remembers the hash under the token and size the store listed before
// the read: a write that raced the read has already retired that token,
// so a hash of the newer bytes is never offered for a later listing.
// Token-less files are counted but not remembered. At the bound an
// arbitrary entry makes room, which costs that file one re-read.
func (c *Cache) RecordFileHash(storeName, path string, token uint64, size int64, hash string) {
	if c == nil {
		return
	}
	c.fileMu.Lock()
	defer c.fileMu.Unlock()
	c.fileHashes++
	if token == 0 {
		return
	}
	k := fileKey{storeName, path}
	if _, ok := c.files[k]; !ok && len(c.files) >= c.maxFiles {
		for victim := range c.files {
			delete(c.files, victim)
			break
		}
	}
	c.files[k] = fileHash{token: token, size: size, hash: hash}
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.fileMu.Lock()
	fileHashes, fileHashHits := c.fileHashes, c.fileHashHits
	c.fileMu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:         c.hits,
		Misses:       c.misses,
		Evictions:    c.evictions,
		Entries:      c.order.Len(),
		Capacity:     c.capacity,
		FileHashes:   fileHashes,
		FileHashHits: fileHashHits,
	}
}

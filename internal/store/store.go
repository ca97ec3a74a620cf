// Package store implements the storage systems Xtract crawls and reads:
// an in-memory POSIX-like file system (stand-in for Lustre/Ceph behind a
// Globus endpoint), a directory on local disk, and a Google-Drive-like
// store with per-request rate limiting and MIME types instead of
// extensions.
//
// All stores share the Store interface so the crawler and transfer fabric
// are agnostic to where files live, mirroring the paper's modular crawler
// interface for Globus, S3, Google Drive, and remote POSIX file systems.
package store

import (
	"errors"
	"fmt"
	"path"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Common errors returned by Store implementations.
var (
	ErrNotFound  = errors.New("store: not found")
	ErrIsDir     = errors.New("store: is a directory")
	ErrNotDir    = errors.New("store: not a directory")
	ErrRateLimit = errors.New("store: rate limited")
)

// FileInfo describes one entry in a store. This is the "minimal file
// system metadata" the paper's crawler gathers (name, size, dates).
type FileInfo struct {
	Path      string    // full slash-separated path within the store
	Name      string    // base name
	Size      int64     // bytes (0 for directories)
	ModTime   time.Time // last modification
	IsDir     bool
	Extension string // lowercase extension without the dot, "" if none
	MimeType  string // set by stores that track MIME types (Drive)
	// Token is a change token: List and Stat return the same value for a
	// file until the path is next written or deleted, and never again
	// after. Zero means the store gives no such guarantee (directories,
	// OSStore) and the content must be read to learn whether it changed.
	Token uint64
}

// lastToken issues change tokens. It is process-wide so that two stores
// answering to the same name never issue the same token.
var lastToken atomic.Uint64

// Store is the uniform storage abstraction. Paths are slash-separated and
// rooted at "/".
type Store interface {
	// Name identifies the store (e.g., "petrel", "gdrive").
	Name() string
	// List returns the immediate children of dir, sorted by name.
	List(dir string) ([]FileInfo, error)
	// Read returns the full contents of the file at p.
	Read(p string) ([]byte, error)
	// Write creates or replaces the file at p, creating parents.
	Write(p string, data []byte) error
	// Stat describes the entry at p.
	Stat(p string) (FileInfo, error)
	// Delete removes the file at p (not directories).
	Delete(p string) error
}

// Clean canonicalizes a store path: slash-separated, absolute, no
// trailing slash (except root). A rooted path is cleaned in place:
// path.Clean builds no new string for one that is already clean, or
// that only ends in slashes.
func Clean(p string) string {
	if strings.HasPrefix(p, "/") {
		return path.Clean(p)
	}
	return path.Clean("/" + p)
}

// ExtensionOf returns the lowercase extension of name without the dot.
func ExtensionOf(name string) string {
	ext := path.Ext(name)
	if ext == "" {
		return ""
	}
	return strings.ToLower(strings.TrimPrefix(ext, "."))
}

// Hide returns s with the named paths left out of its listings; they stay
// readable and writable. It keeps what a service writes itself — staged
// copies, an output directory — from being crawled as input.
func Hide(s Store, paths ...string) Store {
	h := hiding{Store: s}
	for _, p := range paths {
		h.hidden = append(h.hidden, Clean(p))
	}
	return h
}

type hiding struct {
	Store
	hidden []string
}

func (h hiding) List(dir string) ([]FileInfo, error) {
	infos, err := h.Store.List(dir)
	hidden := func(fi FileInfo) bool { return slices.Contains(h.hidden, fi.Path) }
	if slices.ContainsFunc(infos, hidden) {
		infos = slices.DeleteFunc(slices.Clone(infos), hidden) // the listing may be the store's own
	}
	return infos, err
}

// node is a MemFS tree node.
type node struct {
	info     FileInfo
	data     []byte
	children map[string]*node // nil for files
}

// MemFS is an in-memory hierarchical file system. Safe for concurrent use.
type MemFS struct {
	name string
	mu   sync.RWMutex
	root *node
	now  func() time.Time

	// bytesRead is atomic so concurrent readers share the read lock.
	bytesRead    atomic.Int64
	bytesWritten int64
}

// NewMemFS returns an empty file system named name. The now function
// stamps ModTime on writes; pass time.Now (or a fake clock's Now) as
// appropriate.
func NewMemFS(name string, now func() time.Time) *MemFS {
	if now == nil {
		now = time.Now
	}
	return &MemFS{
		name: name,
		now:  now,
		root: &node{
			info:     FileInfo{Path: "/", Name: "/", IsDir: true},
			children: make(map[string]*node),
		},
	}
}

// Name implements Store.
func (m *MemFS) Name() string { return m.name }

// lookup walks the tree along p's components, in place.
func (m *MemFS) lookup(p string) (*node, error) {
	p = Clean(p)
	cur := m.root
	for i := 1; i < len(p); {
		end := nextSlash(p, i)
		if cur.children == nil {
			return nil, ErrNotDir
		}
		next, ok := cur.children[p[i:end]]
		if !ok {
			return nil, ErrNotFound
		}
		cur, i = next, end+1
	}
	return cur, nil
}

// nextSlash is the index of the first '/' in p at or after i, or len(p).
func nextSlash(p string, i int) int {
	if j := strings.IndexByte(p[i:], '/'); j >= 0 {
		return i + j
	}
	return len(p)
}

// List implements Store.
func (m *MemFS) List(dir string) ([]FileInfo, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n, err := m.lookup(dir)
	if err != nil {
		return nil, err
	}
	if n.children == nil {
		return nil, ErrNotDir
	}
	// The children are sorted by pointer, so that the sort moves 8 bytes
	// an entry rather than a FileInfo, and each entry is copied out once.
	var buf [64]*node
	kids := buf[:0]
	if len(n.children) > len(buf) {
		kids = make([]*node, 0, len(n.children))
	}
	for _, c := range n.children {
		kids = append(kids, c)
	}
	slices.SortFunc(kids, func(a, b *node) int { return strings.Compare(a.info.Name, b.info.Name) })
	out := make([]FileInfo, len(kids))
	for i, c := range kids {
		out[i] = c.info
	}
	return out, nil
}

// Read implements Store.
func (m *MemFS) Read(p string) ([]byte, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n, err := m.lookup(p)
	if err != nil {
		return nil, err
	}
	if n.children != nil {
		return nil, ErrIsDir
	}
	m.bytesRead.Add(int64(len(n.data)))
	out := make([]byte, len(n.data))
	copy(out, n.data)
	return out, nil
}

// Write implements Store. Parent directories are created as needed.
func (m *MemFS) Write(p string, data []byte) error {
	p = Clean(p)
	if p == "/" {
		return ErrIsDir
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	dir, base := path.Split(p)
	parent, err := m.mkdirAll(strings.TrimSuffix(dir, "/"))
	if err != nil {
		return err
	}
	if existing, ok := parent.children[base]; ok && existing.children != nil {
		return ErrIsDir
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	parent.children[base] = &node{
		info: FileInfo{
			Path:      p,
			Name:      base,
			Size:      int64(len(data)),
			ModTime:   m.now(),
			Extension: ExtensionOf(base),
			Token:     lastToken.Add(1),
		},
		data: cp,
	}
	m.bytesWritten += int64(len(data))
	return nil
}

// MkdirAll creates a directory and all parents.
func (m *MemFS) MkdirAll(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, err := m.mkdirAll(Clean(dir))
	return err
}

// mkdirAll walks the tree along the clean path dir's components, in
// place, creating missing directories; a new directory's Path and Name
// are substrings of dir.
func (m *MemFS) mkdirAll(dir string) (*node, error) {
	cur := m.root
	for i := 1; i < len(dir); {
		end := nextSlash(dir, i)
		part := dir[i:end]
		next, ok := cur.children[part]
		if !ok {
			next = &node{
				info:     FileInfo{Path: dir[:end], Name: part, IsDir: true, ModTime: m.now()},
				children: make(map[string]*node),
			}
			cur.children[part] = next
		} else if next.children == nil {
			return nil, ErrNotDir
		}
		cur, i = next, end+1
	}
	return cur, nil
}

// Stat implements Store.
func (m *MemFS) Stat(p string) (FileInfo, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n, err := m.lookup(p)
	if err != nil {
		return FileInfo{}, err
	}
	return n.info, nil
}

// Delete implements Store.
func (m *MemFS) Delete(p string) error {
	p = Clean(p)
	m.mu.Lock()
	defer m.mu.Unlock()
	dir, base := path.Split(p)
	parent, err := m.lookup(strings.TrimSuffix(dir, "/"))
	if err != nil {
		return err
	}
	n, ok := parent.children[base]
	if !ok {
		return ErrNotFound
	}
	if n.children != nil && len(n.children) > 0 {
		return fmt.Errorf("store: directory %s not empty", p)
	}
	delete(parent.children, base)
	return nil
}

// Traffic reports cumulative bytes read from and written to the store.
func (m *MemFS) Traffic() (read, written int64) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.bytesRead.Load(), m.bytesWritten
}

// TotalBytes walks the tree and returns the total file bytes and count.
func (m *MemFS) TotalBytes() (bytes int64, files int) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var walk func(n *node)
	walk = func(n *node) {
		if n.children == nil {
			bytes += n.info.Size
			files++
			return
		}
		for _, c := range n.children {
			walk(c)
		}
	}
	walk(m.root)
	return bytes, files
}

package store

import (
	"slices"
	"strings"
	"sync"
	"time"
)

// ObjectStore is an S3-like flat key→blob store. Keys contain slashes but
// there is no real directory tree; List synthesizes directory entries
// using "/" as the delimiter, the way S3 prefix listing does.
type ObjectStore struct {
	name string
	mu   sync.RWMutex
	objs map[string]*object
	now  func() time.Time
}

type object struct {
	info FileInfo
	data []byte
}

// NewObjectStore returns an empty object store.
func NewObjectStore(name string, now func() time.Time) *ObjectStore {
	if now == nil {
		now = time.Now
	}
	return &ObjectStore{name: name, objs: make(map[string]*object), now: now}
}

// Name implements Store.
func (o *ObjectStore) Name() string { return o.name }

// Write implements Store.
func (o *ObjectStore) Write(p string, data []byte) error {
	p = Clean(p)
	if p == "/" {
		return ErrIsDir
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	cp := make([]byte, len(data))
	copy(cp, data)
	base := p[strings.LastIndex(p, "/")+1:]
	o.objs[p] = &object{
		info: FileInfo{
			Path:      p,
			Name:      base,
			Size:      int64(len(data)),
			ModTime:   o.now(),
			Extension: ExtensionOf(base),
			Token:     lastToken.Add(1),
		},
		data: cp,
	}
	return nil
}

// Read implements Store.
func (o *ObjectStore) Read(p string) ([]byte, error) {
	p = Clean(p)
	o.mu.RLock()
	defer o.mu.RUnlock()
	obj, ok := o.objs[p]
	if !ok {
		return nil, ErrNotFound
	}
	out := make([]byte, len(obj.data))
	copy(out, obj.data)
	return out, nil
}

// Stat implements Store. Stat on a "directory" prefix succeeds if any key
// lives under it.
func (o *ObjectStore) Stat(p string) (FileInfo, error) {
	p = Clean(p)
	o.mu.RLock()
	defer o.mu.RUnlock()
	if obj, ok := o.objs[p]; ok {
		return obj.info, nil
	}
	prefix := p
	if prefix != "/" {
		prefix += "/"
	}
	for k := range o.objs {
		if strings.HasPrefix(k, prefix) {
			return FileInfo{Path: p, Name: p[strings.LastIndex(p, "/")+1:], IsDir: true}, nil
		}
	}
	return FileInfo{}, ErrNotFound
}

// Delete implements Store.
func (o *ObjectStore) Delete(p string) error {
	p = Clean(p)
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, ok := o.objs[p]; !ok {
		return ErrNotFound
	}
	delete(o.objs, p)
	return nil
}

// List implements Store, synthesizing one level of hierarchy from key
// prefixes the way S3 delimiter listing does.
func (o *ObjectStore) List(dir string) ([]FileInfo, error) {
	dir = Clean(dir)
	prefix := dir
	if prefix != "/" {
		prefix += "/"
	}
	o.mu.RLock()
	defer o.mu.RUnlock()
	seenDirs := make(map[string]bool)
	var out []FileInfo
	found := dir == "/"
	for k, obj := range o.objs {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		found = true
		rest := strings.TrimPrefix(k, prefix)
		if i := strings.Index(rest, "/"); i >= 0 {
			// Deeper object: synthesize a directory entry once.
			d := rest[:i]
			if !seenDirs[d] {
				seenDirs[d] = true
				out = append(out, FileInfo{Path: prefix + d, Name: d, IsDir: true})
			}
			continue
		}
		out = append(out, obj.info)
	}
	if !found {
		return nil, ErrNotFound
	}
	slices.SortFunc(out, func(a, b FileInfo) int { return strings.Compare(a.Name, b.Name) })
	return out, nil
}

// KeyCount returns the number of stored objects.
func (o *ObjectStore) KeyCount() int {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return len(o.objs)
}

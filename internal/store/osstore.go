package store

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// OSStore exposes a directory of the local file system through the Store
// interface, letting the live Xtract service crawl and extract real
// on-disk repositories (the cmd/xtract CLI path). All store paths are
// interpreted relative to the configured root; escapes via ".." are
// rejected.
type OSStore struct {
	name string
	root string
}

// NewOSStore returns a store rooted at dir.
func NewOSStore(name, dir string) (*OSStore, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	info, err := os.Stat(abs)
	if err != nil {
		return nil, err
	}
	if !info.IsDir() {
		return nil, ErrNotDir
	}
	return &OSStore{name: name, root: abs}, nil
}

// Name implements Store.
func (o *OSStore) Name() string { return o.name }

// Root returns the store's root directory on disk.
func (o *OSStore) Root() string { return o.root }

// resolve maps a store path to an on-disk path inside the root.
func (o *OSStore) resolve(p string) (string, error) {
	clean := Clean(p)
	full := filepath.Join(o.root, filepath.FromSlash(strings.TrimPrefix(clean, "/")))
	if full != o.root && !strings.HasPrefix(full, o.root+string(filepath.Separator)) {
		return "", errors.New("store: path escapes root")
	}
	return full, nil
}

func mapOSError(err error) error {
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return ErrNotFound
	default:
		return err
	}
}

// List implements Store.
func (o *OSStore) List(dir string) ([]FileInfo, error) {
	full, err := o.resolve(dir)
	if err != nil {
		return nil, err
	}
	entries, err := os.ReadDir(full)
	if err != nil {
		return nil, mapOSError(err)
	}
	prefix := Clean(dir)
	if prefix != "/" {
		prefix += "/"
	}
	out := make([]FileInfo, 0, len(entries))
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			continue
		}
		fi := FileInfo{
			Path:    prefix + e.Name(), // a directory entry's name is one clean component
			Name:    e.Name(),
			ModTime: info.ModTime(),
			IsDir:   e.IsDir(),
		}
		if !e.IsDir() {
			fi.Size = info.Size()
			fi.Extension = ExtensionOf(e.Name())
		}
		out = append(out, fi)
	}
	return out, nil
}

// Read implements Store.
func (o *OSStore) Read(p string) ([]byte, error) {
	full, err := o.resolve(p)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(full)
	if err != nil {
		return nil, mapOSError(err)
	}
	return data, nil
}

// Write implements Store, creating parent directories.
func (o *OSStore) Write(p string, data []byte) error {
	full, err := o.resolve(p)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
		return err
	}
	return os.WriteFile(full, data, 0o644)
}

// Stat implements Store.
func (o *OSStore) Stat(p string) (FileInfo, error) {
	full, err := o.resolve(p)
	if err != nil {
		return FileInfo{}, err
	}
	info, err := os.Stat(full)
	if err != nil {
		return FileInfo{}, mapOSError(err)
	}
	fi := FileInfo{
		Path:    Clean(p),
		Name:    info.Name(),
		ModTime: info.ModTime(),
		IsDir:   info.IsDir(),
	}
	if !info.IsDir() {
		fi.Size = info.Size()
		fi.Extension = ExtensionOf(info.Name())
	}
	return fi, nil
}

// Delete implements Store (files only).
func (o *OSStore) Delete(p string) error {
	full, err := o.resolve(p)
	if err != nil {
		return err
	}
	info, err := os.Stat(full)
	if err != nil {
		return mapOSError(err)
	}
	if info.IsDir() {
		return ErrIsDir
	}
	return os.Remove(full)
}

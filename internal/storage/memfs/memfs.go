// Package memfs implements an in-memory storage driver. It models the
// low-latency cache tier of the data grid (the paper's distributed
// caches) and is the workhorse store for tests and benchmarks.
package memfs

import (
	"bytes"
	"io/fs"
	"strings"
	"sync"
	"time"

	"gosrb/internal/lend"
	"gosrb/internal/storage"
	"gosrb/internal/types"
)

// FS is an in-memory storage.Driver. The zero value is not usable; call
// New. FS is safe for concurrent use. Writes become visible atomically
// when the write handle is closed.
type FS struct {
	mu    sync.RWMutex
	files map[string]*entry
	dirs  map[string]bool
	now   func() time.Time
}

type entry struct {
	data    []byte
	modTime time.Time
}

// New returns an empty in-memory store.
func New() *FS {
	return &FS{
		files: make(map[string]*entry),
		dirs:  map[string]bool{"/": true},
		now:   time.Now,
	}
}

// SetClock overrides the time source (tests).
func (f *FS) SetClock(now func() time.Time) { f.now = now }

// clean normalises a physical path, rejecting NULs and the bare root.
func (f *FS) clean(p string) (string, error) {
	if strings.Contains(p, "\x00") {
		return "", types.E("path", p, types.ErrInvalid)
	}
	c := types.CleanPath(p)
	if c == "/" {
		return "", types.E("path", p, types.ErrInvalid)
	}
	return c, nil
}

// Create implements storage.Driver.
func (f *FS) Create(path string) (storage.WriteFile, error) {
	p, err := f.clean(path)
	if err != nil {
		return nil, err
	}
	return &writer{fs: f, path: p}, nil
}

// OpenAppend implements storage.Driver.
func (f *FS) OpenAppend(path string) (storage.WriteFile, error) {
	p, err := f.clean(path)
	if err != nil {
		return nil, err
	}
	w := &writer{fs: f, path: p}
	f.mu.RLock()
	if e, ok := f.files[p]; ok {
		w.buf.Write(e.data)
	}
	f.mu.RUnlock()
	return w, nil
}

type writer struct {
	fs     *FS
	path   string
	buf    bytes.Buffer
	closed bool
}

func (w *writer) Write(p []byte) (int, error) {
	if w.closed {
		return 0, types.E("write", w.path, types.ErrInvalid)
	}
	return w.buf.Write(p)
}

// Close publishes the accumulated bytes atomically. The buffer's own
// array is kept when at most an eighth of it is spare, so a stored file
// costs no copy and stays within 1/8 of its length; a looser one is
// copied tight. A closed writer never touches the array again.
func (w *writer) Close() error {
	if w.closed {
		return nil
	}
	w.closed = true
	data := w.buf.Bytes()
	if cap(data)-len(data) > len(data)/8 {
		data = append([]byte(nil), data...)
	}
	w.fs.mu.Lock()
	w.fs.files[w.path] = &entry{data: data, modTime: w.fs.now()}
	w.fs.markDirs(w.path)
	w.fs.mu.Unlock()
	return nil
}

// Abort drops the accumulated bytes without publishing them.
func (w *writer) Abort() error {
	w.closed = true
	w.buf = bytes.Buffer{}
	return nil
}

// markDirs records every ancestor directory of p, each a prefix of it;
// callers hold mu.
func (f *FS) markDirs(p string) {
	for a := types.CleanPath(p); a != "/"; {
		a = types.Parent(a)
		f.dirs[a] = true
	}
}

// Open implements storage.Driver. The returned handle reads a snapshot:
// later writes to the same path do not affect it. It is lent from a
// pool (package lend) and handed back by its Close.
func (f *FS) Open(path string) (storage.ReadFile, error) {
	p, err := f.clean(path)
	if err != nil {
		return nil, err
	}
	f.mu.RLock()
	e, ok := f.files[p]
	f.mu.RUnlock()
	if !ok {
		return nil, types.E("open", path, types.ErrNotFound)
	}
	r := readers.Get()
	r.rd.Reset(e.data)
	r.open = true
	return r, nil
}

// readers lends read handles: a get makes none. One is in flight per
// file being read.
var readers = lend.NewPool(64, func() *reader { return &reader{} })

// reader is a lent read handle. Close zeroes it before handing it back,
// so a late call on it finds it closed until the pool lends it again.
type reader struct {
	rd   bytes.Reader
	open bool
}

// closed is the error of a call on a closed handle.
func closed(op string) error {
	return lend.Stale("memfs: read handle", types.E(op, "", fs.ErrClosed))
}

func (r *reader) Read(p []byte) (int, error) {
	if !r.open {
		return 0, closed("read")
	}
	return r.rd.Read(p)
}

func (r *reader) ReadAt(p []byte, off int64) (int, error) {
	if !r.open {
		return 0, closed("read")
	}
	return r.rd.ReadAt(p, off)
}

func (r *reader) Seek(off int64, whence int) (int64, error) {
	if !r.open {
		return 0, closed("seek")
	}
	return r.rd.Seek(off, whence)
}

func (r *reader) Close() error {
	if !r.open {
		return closed("close")
	}
	*r = reader{}
	readers.Put(r)
	return nil
}

// Stat implements storage.Driver.
func (f *FS) Stat(path string) (storage.FileInfo, error) {
	p, err := f.clean(path)
	if err != nil {
		return storage.FileInfo{}, err
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	if e, ok := f.files[p]; ok {
		return storage.FileInfo{Path: p, Size: int64(len(e.data)), ModTime: e.modTime}, nil
	}
	if f.dirs[p] {
		return storage.FileInfo{Path: p, IsDir: true}, nil
	}
	return storage.FileInfo{}, types.E("stat", path, types.ErrNotFound)
}

// Remove implements storage.Driver.
func (f *FS) Remove(path string) error {
	p, err := f.clean(path)
	if err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.files[p]; !ok {
		return types.E("remove", path, types.ErrNotFound)
	}
	delete(f.files, p)
	return nil
}

// Rename implements storage.Driver.
func (f *FS) Rename(oldPath, newPath string) error {
	op, err := f.clean(oldPath)
	if err != nil {
		return err
	}
	np, err := f.clean(newPath)
	if err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	e, ok := f.files[op]
	if !ok {
		return types.E("rename", oldPath, types.ErrNotFound)
	}
	delete(f.files, op)
	f.files[np] = e
	f.markDirs(np)
	return nil
}

// List implements storage.Driver: direct children of dir, sorted.
func (f *FS) List(dir string) ([]storage.FileInfo, error) {
	d := types.CleanPath(dir)
	f.mu.RLock()
	defer f.mu.RUnlock()
	if !f.dirs[d] {
		// A directory exists if marked or if any file lies beneath it.
		found := false
		for p := range f.files {
			if types.Within(d, p) {
				found = true
				break
			}
		}
		if !found {
			return nil, types.E("list", dir, types.ErrNotFound)
		}
	}
	seen := make(map[string]storage.FileInfo)
	for p, e := range f.files {
		if !types.Within(d, p) {
			continue
		}
		if types.Parent(p) == d {
			seen[p] = storage.FileInfo{Path: p, Size: int64(len(e.data)), ModTime: e.modTime}
		} else {
			// intermediate directory
			child := childOf(d, p)
			seen[child] = storage.FileInfo{Path: child, IsDir: true}
		}
	}
	for p := range f.dirs {
		if types.Parent(p) == d && p != d {
			if _, ok := seen[p]; !ok {
				seen[p] = storage.FileInfo{Path: p, IsDir: true}
			}
		}
	}
	out := make([]storage.FileInfo, 0, len(seen))
	for _, fi := range seen {
		out = append(out, fi)
	}
	storage.SortInfos(out)
	return out, nil
}

// childOf returns the immediate child of dir on the way to descendant p.
func childOf(dir, p string) string {
	rest := p[len(dir):]
	if dir == "/" {
		rest = p
	}
	for i := 1; i < len(rest); i++ {
		if rest[i] == '/' {
			return types.Join(dir, rest[1:i])
		}
	}
	return p
}

// Mkdir implements storage.Driver.
func (f *FS) Mkdir(path string) error {
	p := types.CleanPath(path)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.dirs[p] = true
	f.markDirs(p)
	return nil
}

// Usage implements storage.UsageReporter.
func (f *FS) Usage() storage.Usage {
	f.mu.RLock()
	defer f.mu.RUnlock()
	var u storage.Usage
	for _, e := range f.files {
		u.Bytes += int64(len(e.data))
		u.Files++
	}
	return u
}

var _ storage.Driver = (*FS)(nil)
var _ storage.UsageReporter = (*FS)(nil)

// Package posixfs implements a storage driver over a local POSIX file
// system, rooted at a directory. It is the "Unix File System" resource
// of the paper. All physical paths are confined beneath the root.
package posixfs

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"gosrb/internal/durable"
	"gosrb/internal/storage"
	"gosrb/internal/types"
)

// FS is a storage.Driver rooted at a host directory.
type FS struct {
	root string
}

// New returns a driver rooted at dir, creating it if needed.
func New(dir string) (*FS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, types.E("posixfs", dir, err)
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, types.E("posixfs", dir, err)
	}
	return &FS{root: abs}, nil
}

// Root returns the host directory backing the store.
func (f *FS) Root() string { return f.root }

// resolve maps a logical physical-path to a host path under root,
// refusing escapes.
func (f *FS) resolve(p string) (string, error) {
	if strings.Contains(p, "\x00") {
		return "", types.E("path", p, types.ErrInvalid)
	}
	c := types.CleanPath(p)
	if c == "/" {
		return "", types.E("path", p, types.ErrInvalid)
	}
	host := filepath.Join(f.root, filepath.FromSlash(strings.TrimPrefix(c, "/")))
	if !strings.HasPrefix(host, f.root+string(os.PathSeparator)) {
		return "", types.E("path", p, types.ErrInvalid)
	}
	return host, nil
}

// back converts a host path under root to the driver's slash path.
func (f *FS) back(host string) string {
	rel, err := filepath.Rel(f.root, host)
	if err != nil {
		return "/"
	}
	return types.CleanPath(filepath.ToSlash(rel))
}

func mapErr(op, path string, err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, fs.ErrNotExist) {
		return types.E(op, path, types.ErrNotFound)
	}
	if errors.Is(err, fs.ErrExist) {
		return types.E(op, path, types.ErrExists)
	}
	return types.E(op, path, err)
}

// Create implements storage.Driver. The write is staged in a temp file
// in the destination directory and renamed into place at Close, so
// readers never observe partial contents.
func (f *FS) Create(path string) (storage.WriteFile, error) {
	host, err := f.resolve(path)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(host), 0o755); err != nil {
		return nil, mapErr("create", path, err)
	}
	w := &atomicWriter{path: path}
	if err := w.Open(host); err != nil {
		return nil, mapErr("create", path, err)
	}
	return w, nil
}

// atomicWriter is a replica file staged by durable: Close publishes it,
// Abort drops it.
type atomicWriter struct {
	durable.File
	path string
}

func (w *atomicWriter) Close() error { return mapErr("close", w.path, w.Commit()) }

// Abort discards the staged temp file; the destination is untouched.
func (w *atomicWriter) Abort() error { return mapErr("abort", w.path, w.File.Abort()) }

// OpenAppend implements storage.Driver.
func (f *FS) OpenAppend(path string) (storage.WriteFile, error) {
	host, err := f.resolve(path)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Dir(host), 0o755); err != nil {
		return nil, mapErr("append", path, err)
	}
	fh, err := os.OpenFile(host, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, mapErr("append", path, err)
	}
	return fh, nil
}

// Open implements storage.Driver.
func (f *FS) Open(path string) (storage.ReadFile, error) {
	host, err := f.resolve(path)
	if err != nil {
		return nil, err
	}
	fh, err := os.Open(host)
	if err != nil {
		return nil, mapErr("open", path, err)
	}
	fi, err := fh.Stat()
	if err == nil && fi.IsDir() {
		fh.Close()
		return nil, types.E("open", path, types.ErrInvalid)
	}
	return fh, nil
}

// Stat implements storage.Driver.
func (f *FS) Stat(path string) (storage.FileInfo, error) {
	host, err := f.resolve(path)
	if err != nil {
		return storage.FileInfo{}, err
	}
	fi, err := os.Stat(host)
	if err != nil {
		return storage.FileInfo{}, mapErr("stat", path, err)
	}
	return storage.FileInfo{
		Path:    types.CleanPath(path),
		Size:    fi.Size(),
		ModTime: fi.ModTime(),
		IsDir:   fi.IsDir(),
	}, nil
}

// Remove implements storage.Driver.
func (f *FS) Remove(path string) error {
	host, err := f.resolve(path)
	if err != nil {
		return err
	}
	if fi, err := os.Stat(host); err == nil && fi.IsDir() {
		return types.E("remove", path, types.ErrInvalid)
	}
	return mapErr("remove", path, os.Remove(host))
}

// Rename implements storage.Driver.
func (f *FS) Rename(oldPath, newPath string) error {
	oh, err := f.resolve(oldPath)
	if err != nil {
		return err
	}
	nh, err := f.resolve(newPath)
	if err != nil {
		return err
	}
	if _, err := os.Stat(oh); err != nil {
		return mapErr("rename", oldPath, err)
	}
	if err := os.MkdirAll(filepath.Dir(nh), 0o755); err != nil {
		return mapErr("rename", newPath, err)
	}
	return mapErr("rename", oldPath, os.Rename(oh, nh))
}

// List implements storage.Driver.
func (f *FS) List(dir string) ([]storage.FileInfo, error) {
	host, err := f.resolve(dir)
	if err != nil {
		if types.CleanPath(dir) == "/" {
			host = f.root
		} else {
			return nil, err
		}
	}
	ents, err := os.ReadDir(host)
	if err != nil {
		return nil, mapErr("list", dir, err)
	}
	out := make([]storage.FileInfo, 0, len(ents))
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), durable.TempPrefix) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		out = append(out, storage.FileInfo{
			Path:    f.back(filepath.Join(host, e.Name())),
			Size:    info.Size(),
			ModTime: info.ModTime(),
			IsDir:   e.IsDir(),
		})
	}
	storage.SortInfos(out)
	return out, nil
}

// Mkdir implements storage.Driver.
func (f *FS) Mkdir(path string) error {
	host, err := f.resolve(path)
	if err != nil {
		return err
	}
	return mapErr("mkdir", path, os.MkdirAll(host, 0o755))
}

var _ storage.Driver = (*FS)(nil)

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
	"syscall"

	"gosrb/internal/durable"
	"gosrb/internal/storage"
	"gosrb/internal/types"
)

// FS is a storage.Driver rooted at a host directory.
type FS struct {
	root string
	// prefix is root ending in one separator: every host path resolve
	// returns is prefix and then a relative path.
	prefix string
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
	return &FS{root: abs, prefix: strings.TrimSuffix(abs, string(os.PathSeparator)) + string(os.PathSeparator)}, nil
}

// Root returns the host directory backing the store.
func (f *FS) Root() string { return f.root }

// resolve maps a logical physical-path to a host path relative to root,
// refusing a NUL, the root itself and any escape from it. CleanPath
// leaves an absolute path with no "." or ".." element and no doubled
// slash, so the relative path is the cleaned path after its leading
// slash: for a clean path on a '/' system it is a substring of p, and
// nothing is allocated; durable joins it to prefix on the stack. Where
// the separator is not '/', a name holding one would make new elements,
// ".." among them: the host path would then not be clean, and is
// refused.
func (f *FS) resolve(p string) (string, error) {
	if strings.Contains(p, "\x00") {
		return "", types.E("path", p, types.ErrInvalid)
	}
	c := types.CleanPath(p)
	if c == "/" {
		return "", types.E("path", p, types.ErrInvalid)
	}
	rel := filepath.FromSlash(c[1:])
	if os.PathSeparator != '/' {
		if host := f.prefix + rel; filepath.Clean(host) != host {
			return "", types.E("path", p, types.ErrInvalid)
		}
	}
	return rel, nil
}

// host is resolve's path joined to prefix, for the ops that reach a file
// through package os.
func (f *FS) host(p string) (string, error) {
	rel, err := f.resolve(p)
	if err != nil {
		return "", err
	}
	return f.prefix + rel, nil
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
// readers never observe partial contents. The directory is made only
// when the staged open finds it missing.
func (f *FS) Create(path string) (storage.WriteFile, error) {
	rel, err := f.resolve(path)
	if err != nil {
		return nil, err
	}
	w := &atomicWriter{path: path}
	err = w.Open(f.prefix, rel)
	if errors.Is(err, fs.ErrNotExist) {
		if err = mkdir(filepath.Dir(f.prefix + rel)); err == nil {
			err = w.Open(f.prefix, rel)
		}
	}
	if err != nil {
		return nil, mapErr("create", path, err)
	}
	return w, nil
}

// mkdir makes dir for a create or an append that found it missing.
// Usually only dir itself is (a vault bucket's first replica), so it is
// made in one call; only when its parent is missing too does the walk of
// MkdirAll run. A dir a concurrent create made first is no error.
func mkdir(dir string) error {
	err := os.Mkdir(dir, 0o755)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		return os.MkdirAll(dir, 0o755)
	case errors.Is(err, fs.ErrExist):
		return nil
	}
	return err
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

// OpenAppend implements storage.Driver. As in Create, the directory is
// made only when the open finds it missing.
func (f *FS) OpenAppend(path string) (storage.WriteFile, error) {
	host, err := f.host(path)
	if err != nil {
		return nil, err
	}
	fh, err := os.OpenFile(host, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if errors.Is(err, fs.ErrNotExist) {
		if err = mkdir(filepath.Dir(host)); err == nil {
			fh, err = os.OpenFile(host, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		}
	}
	if err != nil {
		return nil, mapErr("append", path, err)
	}
	return fh, nil
}

// Open implements storage.Driver. A directory is refused as invalid.
func (f *FS) Open(path string) (storage.ReadFile, error) {
	rel, err := f.resolve(path)
	if err != nil {
		return nil, err
	}
	r, err := durable.Open(f.prefix, rel)
	if errors.Is(err, syscall.EISDIR) {
		return nil, types.E("open", path, types.ErrInvalid)
	}
	if err != nil {
		return nil, mapErr("open", path, err)
	}
	return r, nil
}

// Stat implements storage.Driver.
func (f *FS) Stat(path string) (storage.FileInfo, error) {
	host, err := f.host(path)
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

// Remove implements storage.Driver. A directory is refused as invalid.
func (f *FS) Remove(path string) error {
	rel, err := f.resolve(path)
	if err != nil {
		return err
	}
	err = durable.Remove(f.prefix, rel)
	if errors.Is(err, syscall.EISDIR) {
		return types.E("remove", path, types.ErrInvalid)
	}
	return mapErr("remove", path, err)
}

// Rename implements storage.Driver.
func (f *FS) Rename(oldPath, newPath string) error {
	oh, err := f.host(oldPath)
	if err != nil {
		return err
	}
	nh, err := f.host(newPath)
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
	host, err := f.host(dir)
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
	host, err := f.host(path)
	if err != nil {
		return err
	}
	return mapErr("mkdir", path, os.MkdirAll(host, 0o755))
}

var _ storage.Driver = (*FS)(nil)

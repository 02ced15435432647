// Package storage defines the driver abstraction the SRB broker uses
// to reach heterogeneous storage systems, mirroring the paper's list:
// archival systems (HPSS, UniTree, ADSM), file systems (Unix, NTFS) and
// databases (Oracle, DB2, Sybase).
//
// A Driver manages the physical store of one resource. Drivers speak in
// physical paths; the logical name space and all policy (replication,
// access control, containers) live above, in the catalog and broker.
package storage

import (
	"io"
	"sort"
	"time"

	"gosrb/internal/chunk"
	"gosrb/internal/types"
)

// ReadFile is an open handle for reading: sequential, seekable and
// positional reads are all supported so containers can extract member
// byte ranges without copying the whole segment.
type ReadFile interface {
	io.Reader
	io.Seeker
	io.ReaderAt
	io.Closer
}

// WriteFile is an open handle for writing. Contents become visible to
// readers atomically at Close.
type WriteFile interface {
	io.Writer
	io.Closer
}

// Abort discards an open write. A WriteFile stages its contents until
// Close, so a writer with an Abort method drops the staged bytes and
// leaves whatever the path held before untouched; Abort then reports
// true. For a writer without one the only way out is to publish and
// delete: the path ends up empty, and Abort reports false so the caller
// knows the previous contents are gone.
func Abort(d Driver, path string, w WriteFile) (preserved bool) {
	if a, ok := w.(interface{ Abort() error }); ok && a.Abort() == nil {
		return true
	}
	w.Close()
	d.Remove(path)
	return false
}

// ForwardAbort is Abort for a WriteFile decorator: it aborts inner when
// inner can, and otherwise reports types.ErrUnsupported so the caller's
// Abort falls back to Close and Remove through the decorated driver.
func ForwardAbort(inner WriteFile) error {
	if a, ok := inner.(interface{ Abort() error }); ok {
		return a.Abort()
	}
	return types.ErrUnsupported
}

// FileInfo describes one stored file or directory.
type FileInfo struct {
	Path    string // physical path within the resource
	Size    int64
	ModTime time.Time
	IsDir   bool
}

// Driver is the storage-system abstraction. Implementations must be
// safe for concurrent use.
type Driver interface {
	// Create opens path for writing, truncating any previous contents.
	// Parent directories are created implicitly.
	Create(path string) (WriteFile, error)
	// OpenAppend opens path for appending, creating it if absent.
	// Containers rely on this to grow segment files.
	OpenAppend(path string) (WriteFile, error)
	// Open opens path for reading.
	Open(path string) (ReadFile, error)
	// Stat describes path.
	Stat(path string) (FileInfo, error)
	// Remove deletes the file at path. Removing a missing path returns
	// types.ErrNotFound.
	Remove(path string) error
	// Rename atomically moves old to new within the resource.
	Rename(oldPath, newPath string) error
	// List returns the entries directly under dir, sorted by path.
	List(dir string) ([]FileInfo, error)
	// Mkdir creates a directory (and parents). Drivers with a flat
	// namespace may treat it as a no-op that only validates the path.
	Mkdir(path string) error
}

// Usage reports capacity accounting for drivers that track it; cache
// management uses it to decide when to purge.
type Usage struct {
	Bytes int64 // bytes currently stored
	Files int   // number of files
}

// UsageReporter is an optional Driver extension.
type UsageReporter interface {
	Usage() Usage
}

// WriteAll stores contents at path in a single call.
func WriteAll(d Driver, path string, contents []byte) error {
	w, err := d.Create(path)
	if err != nil {
		return err
	}
	if _, err := w.Write(contents); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// ReadAll retrieves the full contents of path in one allocation of the
// file's size.
func ReadAll(d Driver, path string) ([]byte, error) {
	r, err := d.Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	size, err := SizeOf(r)
	if err != nil {
		return nil, err
	}
	return ReadSized(r, size)
}

// SizeOf reports the length of a freshly opened file, leaving it
// positioned at the start.
func SizeOf(r ReadFile) (int64, error) {
	size, err := r.Seek(0, io.SeekEnd)
	if err == nil {
		_, err = r.Seek(0, io.SeekStart)
	}
	return size, err
}

// ReadSized reads r to EOF into a buffer allocated once at size, the
// length the caller expects (a file's size, a catalog row's). A source
// that ends early yields what it held; one that runs past size — a
// replica that outgrew its catalog row — is still read whole, the
// excess the slow way.
func ReadSized(r io.Reader, size int64) ([]byte, error) {
	buf := make([]byte, size)
	n, err := io.ReadFull(r, buf)
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return buf[:n], nil
	}
	if err != nil {
		return nil, err
	}
	var probe [1]byte
	for {
		m, err := r.Read(probe[:])
		if m > 0 {
			rest, rerr := io.ReadAll(r)
			return append(append(buf, probe[0]), rest...), rerr
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// Copy streams the file at srcPath on src to dstPath on dst and returns
// the byte count.
func Copy(dst Driver, dstPath string, src Driver, srcPath string) (int64, error) {
	r, err := src.Open(srcPath)
	if err != nil {
		return 0, err
	}
	defer r.Close()
	w, err := dst.Create(dstPath)
	if err != nil {
		return 0, err
	}
	n, err := chunk.Copy(w, r)
	if err != nil {
		w.Close()
		return n, err
	}
	return n, w.Close()
}

// SortInfos orders listing entries by path, the order List must return.
func SortInfos(infos []FileInfo) {
	sort.Slice(infos, func(i, j int) bool { return infos[i].Path < infos[j].Path })
}

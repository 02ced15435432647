// Package durable puts gosrb's files on disk. A whole file is published
// by renaming a temp file into place (Create, Replace), so a reader sees
// the old contents or the new, never a prefix; a kill can leave a temp
// file named TempPrefix+"*" beside it. A store's snapshot and its line
// journal are one compacting log (Journal, journal.go); the journal
// takes one Write per line, so a kill tears at most its last line, which
// Replay skips. Journal.Close is the only fsync: a power loss can take
// any file written since the last one.
package durable

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"io/fs"
	"math/rand/v2"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"

	"gosrb/internal/lend"
)

// TempPrefix starts the name of every temp file Create makes. A listing
// of published files (posixfs List) hides these.
const TempPrefix = ".srbtmp-"

// fpath names a file by the two strings it is joined from, so the seam
// (fd_linux.go) can join them on the stack: dir, then name, or, with tmp
// nonzero, name's directory and the temp name TempPrefix+tmp in base 36.
type fpath struct {
	dir, name string
	tmp       uint64
}

func (p fpath) appendTo(b []byte) []byte {
	b = append(b, p.dir...)
	if p.tmp == 0 {
		return append(b, p.name...)
	}
	i := len(p.name)
	for i > 0 && !os.IsPathSeparator(p.name[i-1]) {
		i--
	}
	b = append(append(b, p.name[:i]...), TempPrefix...)
	return strconv.AppendUint(b, p.tmp, 36)
}

// String joins p, for an error or a fallback os call.
func (p fpath) String() string { return string(p.appendTo(nil)) }

func (p fpath) err(op string, err error) error {
	return &fs.PathError{Op: op, Path: p.String(), Err: err}
}

// File is a file staged under a temp name beside its destination until
// Commit publishes it or Abort drops it. Once either has run, both
// return nil, so an Abort after a Commit is harmless, and Write and
// WriteAt return an error wrapping os.ErrClosed. Concurrent WriteAt
// calls are safe, and Commit and Abort wait for a Write or WriteAt in
// progress: a client call that timed out can leave its last write into
// the file running (wire.Sink) while its caller aborts, and that write
// must not reach a descriptor number the kernel has handed on.
type File struct {
	mu   sync.RWMutex // held for reading by a write, for writing by Commit and Abort
	fd   fd
	tmp  fpath // the temp file; without its tmp, the destination
	open bool
}

// Create opens a new temp file (mode 0644, made with O_EXCL) in path's
// directory, to be published at path.
func Create(path string) (*File, error) {
	f := new(File)
	if err := f.Open("", path); err != nil {
		return nil, err
	}
	return f, nil
}

// Open is Create for a File embedded in a larger value, with its
// destination given as a directory prefix (ending in a separator, or
// empty) and a name under it, joined without allocating. The temp name
// carries 64 random bits, so O_EXCL refuses one only for a collision
// too unlikely to retry.
func (f *File) Open(dir, name string) error {
	if strings.IndexByte(name, 0) >= 0 {
		// The temp name drops name's base, and a NUL in it with it: the
		// kernel would see this one only at Commit's rename.
		return fpath{dir: dir, name: name}.err("open", syscall.EINVAL)
	}
	tmp := fpath{dir, name, max(rand.Uint64(), 1)}
	fd, err := openat(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return tmp.err("open", err)
	}
	f.fd, f.tmp, f.open = fd, tmp, true
	return nil
}

// Write appends to the staged contents; after a failed Write, Abort.
func (f *File) Write(p []byte) (int, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	if !f.open {
		return 0, f.tmp.err("write", os.ErrClosed)
	}
	n, err := f.fd.write(p)
	if err != nil {
		return n, f.tmp.err("write", err)
	}
	return n, nil
}

// WriteAt writes p at offset off of the staged contents.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	switch {
	case !f.open:
		return 0, f.tmp.err("write", os.ErrClosed)
	case off < 0:
		return 0, f.tmp.err("writeat", errNegativeOffset)
	}
	n, err := f.fd.pwrite(p, off)
	if err != nil {
		return n, f.tmp.err("write", err)
	}
	return n, nil
}

// Commit closes the temp file and renames it to the destination. On
// failure the temp file is removed and the destination is untouched.
func (f *File) Commit() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.open {
		return nil
	}
	f.open = false
	dst := fpath{dir: f.tmp.dir, name: f.tmp.name}
	var err error
	if cerr := f.fd.close(); cerr != nil {
		err = f.tmp.err("close", cerr)
	} else if rerr := renameat(f.tmp, dst); rerr != nil {
		err = &os.LinkError{Op: "rename", Old: f.tmp.String(), New: dst.String(), Err: rerr}
	}
	if err != nil {
		unlinkat(f.tmp)
	}
	return err
}

// Abort closes and removes the temp file; the destination is untouched.
func (f *File) Abort() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.open {
		return nil
	}
	f.open = false
	f.fd.close()
	if err := unlinkat(f.tmp); err != nil {
		return f.tmp.err("remove", err)
	}
	return nil
}

// Remove deletes the file at dir joined with name; a directory there is
// refused with an error wrapping syscall.EISDIR.
func Remove(dir, name string) error {
	p := fpath{dir: dir, name: name}
	if err := unlinkat(p); err != nil {
		return p.err("remove", err)
	}
	return nil
}

var errNegativeOffset = errors.New("negative offset")

// Reader is a file open for reading, as Open returns it. It reads as an
// *os.File does: Read returns io.EOF at end of file, and ReadAt fills p
// or returns an error. After Close every method returns an error
// wrapping os.ErrClosed and none reaches the descriptor, whose number
// the kernel may since have given to another file. Concurrent ReadAt
// calls are safe; a Close concurrent with any other call is not.
//
// A Reader is lent from a pool (package lend): Open takes it and Close
// hands it back, zeroed but for the path its late caller's error names,
// so a get makes no object for it. Close is its holder's last use: once
// the pool has lent it again, a call through the old holder's pointer
// would reach the new holder's file.
type Reader struct {
	fd   fd
	p    fpath
	open bool
}

// readers lends Readers.
var readers = sync.Pool{New: func() any { return &Reader{} }}

// closed is the error of a call on a closed Reader.
func (r *Reader) closed(op string) error {
	return lend.Stale("durable: Reader", r.p.err(op, os.ErrClosed))
}

// Open opens dir joined with name for reading. A directory is refused
// with an error wrapping syscall.EISDIR.
func Open(dir, name string) (*Reader, error) {
	p := fpath{dir: dir, name: name}
	fd, err := openat(p, os.O_RDONLY, 0)
	if err != nil {
		return nil, p.err("open", err)
	}
	if fd.isDir() {
		fd.close()
		return nil, p.err("open", syscall.EISDIR)
	}
	r := readers.Get().(*Reader)
	r.fd, r.p, r.open = fd, p, true
	return r, nil
}

func (r *Reader) Read(p []byte) (int, error) {
	if !r.open {
		return 0, r.closed("read")
	}
	if len(p) == 0 {
		return 0, nil
	}
	n, err := r.fd.read(p)
	switch {
	case err != nil:
		return 0, r.p.err("read", err)
	case n == 0:
		return 0, io.EOF
	}
	return n, nil
}

func (r *Reader) ReadAt(p []byte, off int64) (int, error) {
	switch {
	case !r.open:
		return 0, r.closed("read")
	case off < 0:
		return 0, r.p.err("readat", errNegativeOffset)
	}
	n := 0
	for n < len(p) {
		m, err := r.fd.pread(p[n:], off+int64(n))
		switch {
		case err != nil:
			return n, r.p.err("read", err)
		case m == 0:
			return n, io.EOF
		}
		n += m
	}
	return n, nil
}

func (r *Reader) Seek(off int64, whence int) (int64, error) {
	if !r.open {
		return 0, r.closed("seek")
	}
	n, err := r.fd.seek(off, whence)
	if err != nil {
		return 0, r.p.err("seek", err)
	}
	return n, nil
}

// Close releases the descriptor and hands r back to its pool. A second
// Close before the pool lends r again returns an error wrapping
// os.ErrClosed.
func (r *Reader) Close() error {
	if !r.open {
		return r.closed("close")
	}
	err := r.fd.close()
	p := r.p
	*r = Reader{p: p}
	if lend.Recycle() {
		readers.Put(r)
	}
	if err != nil {
		return p.err("close", err)
	}
	return nil
}

// Replace publishes what write writes as path's new contents. If write
// fails, path is untouched and no temp file is left.
func Replace(path string, write func(io.Writer) error) error {
	f, err := Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Abort()
		return err
	}
	return f.Commit()
}

// Replay hands apply every non-blank line of r but a journal's head,
// without its newline, and counts the lines apply rejects (a torn last
// line among them). A line over 16 MiB stops it with bufio.ErrTooLong.
// The line's buffer is reused once apply returns.
func Replay(r io.Reader, apply func(line []byte) bool) (skipped int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		if line := sc.Bytes(); len(line) > 0 && !bytes.HasPrefix(line, headPrefix) && !apply(line) {
			skipped++
		}
	}
	return skipped, sc.Err()
}

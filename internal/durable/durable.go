// Package durable puts gosrb's files on disk. A whole file is published
// by renaming a temp file into place (Create, Replace), so a reader sees
// the old contents or the new, never a prefix; a kill can leave a temp
// file named TempPrefix+"*" beside it. A line log (Log) takes one Write
// per line, so a kill tears at most its last line, which Replay skips.
// Log.Close is the only fsync: a power loss can take any file written
// since the last one.
package durable

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math/rand/v2"
	"os"
	"strconv"
	"strings"
	"sync"
)

// TempPrefix starts the name of every temp file Create makes. A listing
// of published files (posixfs List) hides these.
const TempPrefix = ".srbtmp-"

// File is a file staged under a temp name beside its destination until
// Commit publishes it or Abort drops it. Once either has run, both
// return nil, so an Abort after a Commit is harmless.
type File struct {
	f    *os.File
	path string
	done bool
}

// Create opens a new temp file (mode 0644, made with O_EXCL) in path's
// directory, to be published at path.
func Create(path string) (*File, error) {
	f := new(File)
	if err := f.Open(path); err != nil {
		return nil, err
	}
	return f, nil
}

// Open is Create for a File embedded in a larger value. The temp name
// carries 64 random bits, so O_EXCL refuses one only for a collision
// too unlikely to retry.
func (f *File) Open(path string) error {
	var num [13]byte
	dir := path[:strings.LastIndexByte(path, os.PathSeparator)+1]
	tmp := dir + TempPrefix + string(strconv.AppendUint(num[:0], rand.Uint64(), 36))
	fh, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err == nil {
		*f = File{f: fh, path: path}
	}
	return err
}

// Write appends to the staged contents; after a failed Write, Abort.
func (f *File) Write(p []byte) (int, error) { return f.f.Write(p) }

// WriteAt writes p at offset off of the staged contents.
func (f *File) WriteAt(p []byte, off int64) (int, error) { return f.f.WriteAt(p, off) }

// Commit closes the temp file and renames it to the destination. On
// failure the temp file is removed and the destination is untouched.
func (f *File) Commit() error {
	if f.done {
		return nil
	}
	f.done = true
	err := f.f.Close()
	if err == nil {
		err = os.Rename(f.f.Name(), f.path)
	}
	if err != nil {
		os.Remove(f.f.Name())
	}
	return err
}

// Abort closes and removes the temp file; the destination is untouched.
func (f *File) Abort() error {
	if f.done {
		return nil
	}
	f.done = true
	f.f.Close()
	return os.Remove(f.f.Name())
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

// Log is an append-only line log over a file, memory (NewMemLog) or any
// other writer. Sync acts on a file, ReadAt and Truncate on a file or
// memory; Close ends any log, and after it (or a failed Truncate) every
// Append returns an error. Safe for concurrent use.
type Log struct {
	mu      sync.Mutex
	w       io.Writer
	f       *os.File // w, when it is a file
	path    string   // where f is on disk
	size    int64    // what OpenLog found in the file, plus what Append wrote
	err     error    // returned by Append once the log is closed
	scratch []byte   // completes a line handed over without its newline
}

// memFile is the bytes of a log kept in memory.
type memFile struct{ b []byte }

func (m *memFile) Write(p []byte) (int, error) {
	m.b = append(m.b, p...)
	return len(p), nil
}

func (m *memFile) ReadAt(p []byte, off int64) (int, error) {
	return bytes.NewReader(m.b).ReadAt(p, off)
}

var errClosed = errors.New("durable: log is closed")

// NewLog wraps w, an *os.File or any other writer, as a log.
func NewLog(w io.Writer) *Log {
	l := &Log{w: w}
	if f, ok := w.(*os.File); ok {
		l.f, l.path = f, f.Name()
	}
	return l
}

// NewMemLog returns an empty log kept in memory.
func NewMemLog() *Log { return &Log{w: new(memFile)} }

// OpenLog opens path for appending, creating it (mode 0644) if absent.
// A file a kill cut mid-line keeps the fragment, which replay skips, and
// gets the newline it lacks, so the next line appended is not glued onto
// the fragment and skipped with it.
func OpenLog(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err == nil && size > 0 {
		var last [1]byte
		if _, err = f.ReadAt(last[:], size-1); err == nil && last[0] != '\n' {
			_, err = f.Write([]byte{'\n'})
			size++
		}
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Log{w: f, f: f, path: path, size: size}, nil
}

// Append issues line as one Write, adding a missing newline in a
// scratch copy.
func (l *Log) Append(line []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if n := len(line); n == 0 || line[n-1] != '\n' {
		l.scratch = append(append(l.scratch[:0], line...), '\n')
		line = l.scratch
	}
	n, err := l.w.Write(line)
	l.size += int64(n)
	return err
}

// Size returns the log's size: what OpenLog found in its file, plus
// what Append wrote since.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// ReadAt reads a file or memory log's bytes at off, as io.ReaderAt does.
func (l *Log) ReadAt(p []byte, off int64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r, ok := l.w.(io.ReaderAt)
	switch {
	case l.err != nil:
		return 0, l.err
	case !ok:
		return 0, errors.ErrUnsupported
	}
	return r.ReadAt(p, off)
}

// Sync flushes a file-backed log to stable storage.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil || l.f == nil {
		return l.err
	}
	return l.f.Sync()
}

// Close syncs and closes a file-backed log. A second Close does nothing.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return nil
	}
	l.err = errClosed
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Truncate empties a file log (closed and reopened empty) or a memory
// log. If the reopen fails the log stays closed, and Append returns the
// reopen's error.
func (l *Log) Truncate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if m, ok := l.w.(*memFile); ok {
		m.b, l.size = m.b[:0], 0
	}
	if l.f == nil {
		return nil
	}
	l.f.Close()
	f, err := os.OpenFile(l.path, os.O_CREATE|os.O_RDWR|os.O_APPEND|os.O_TRUNC, 0o644)
	if err != nil {
		l.err = err
		return err
	}
	l.f, l.w, l.size = f, f, 0
	return nil
}

// Replay hands apply every non-blank line of r, without its newline,
// and counts the lines apply rejects (a torn last line among them). A
// line over 16 MiB stops it with bufio.ErrTooLong. The line's buffer is
// reused once apply returns.
func Replay(r io.Reader, apply func(line []byte) bool) (skipped int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		if line := sc.Bytes(); len(line) > 0 && !apply(line) {
			skipped++
		}
	}
	return skipped, sc.Err()
}

package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"strconv"
	"sync"
)

// Journal is an append-only line log, and the journal of a compacting
// log: a store's snapshot and journal under one generation rule (Resume,
// Compact). A file or memory journal's first line, its head, names a
// generation, a random nonzero ID it takes each time it is emptied, and
// is read by position (Pos, Read). A journal with no head is generation
// 0, which names no journal. Safe for concurrent use. After Close, or an
// emptying whose reopen failed, every Append returns an error.
type Journal struct {
	mu       sync.Mutex
	w        io.Writer
	f        *os.File // w, when it is a file
	path     string   // where f is on disk
	size     int64    // what OpenJournal found in the file, plus what Append wrote
	err      error    // returned by Append once the journal is closed
	scratch  []byte   // completes a line handed over without its newline
	gen      uint64
	head     int64 // the head line's length: where entries start
	readable bool  // a file or memory journal: it takes a head and is read by position
	max      int64 // a memory journal's bound: an append past it empties the journal first
}

// Pos is a reader's position in a journal: its generation and the
// offset of the next line the reader needs. It outlives a restart of
// the writer, and comes off the wire as outside input.
type Pos struct {
	Gen uint64
	Off int64
}

// headPrefix starts a head line, {"Gen":<generation>}. A store's lines
// must not start with it: Replay passes over every line that does.
var headPrefix = []byte(`{"Gen":`)

// AppendHead appends the head line naming gen, newline included: a
// journal's first line, and the first line of a snapshot that has no
// head of its own.
func AppendHead(b []byte, gen uint64) []byte {
	return append(strconv.AppendUint(append(b, headPrefix...), gen, 10), '}', '\n')
}

// ReadHead returns the generation a head line (without its newline)
// names; ok is false for any other line.
func ReadHead(line []byte) (gen uint64, ok bool) {
	rest, ok := bytes.CutPrefix(line, headPrefix)
	digits, closed := bytes.CutSuffix(rest, []byte{'}'})
	if !ok || !closed {
		return 0, false
	}
	gen, err := strconv.ParseUint(string(digits), 10, 64)
	return gen, err == nil
}

// newGen returns a random nonzero generation.
func newGen() uint64 { return rand.Uint64N(math.MaxUint64) + 1 }

// memFile is the bytes of a journal kept in memory.
type memFile struct{ b []byte }

func (m *memFile) Write(p []byte) (int, error) {
	m.b = append(m.b, p...)
	return len(p), nil
}

func (m *memFile) ReadAt(p []byte, off int64) (int, error) {
	return bytes.NewReader(m.b).ReadAt(p, off)
}

var errClosed = errors.New("durable: journal is closed")

// NewJournal wraps a writer as a journal with no head, which is not
// read by position and which emptying leaves as it is.
func NewJournal(w io.Writer) *Journal { return &Journal{w: w} }

// NewMemJournal returns a journal kept in memory, read as a file
// journal is, that empties itself under a new generation before an
// append would take it to max bytes.
func NewMemJournal(max int64) *Journal {
	j := &Journal{w: new(memFile), readable: true, max: max}
	j.empty(newGen()) // memory takes every write
	return j
}

// OpenJournal opens path for appending, creating it (mode 0644) if
// absent, and reads its generation from its head; a file with no head
// line has none. A file a kill cut mid-line keeps the fragment, which
// replay skips, and gets the newline it lacks, so the next line appended
// is not glued onto the fragment and skipped with it.
func OpenJournal(path string) (*Journal, error) {
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
	j := &Journal{w: f, f: f, path: path, size: size, readable: true}
	var buf [64]byte
	n, _ := f.ReadAt(buf[:], 0)
	if line, _, ok := bytes.Cut(buf[:n], []byte{'\n'}); ok {
		if gen, ok := ReadHead(line); ok {
			j.gen, j.head = gen, int64(len(line)+1)
		}
	}
	return j, nil
}

// Append issues line as one Write, which keeps a torn append at most one
// line long; a line without its newline gets one, in a scratch copy. A
// memory journal the line would take past its bound is emptied first.
func (j *Journal) Append(line []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.max > 0 && j.size+int64(len(line)) >= j.max {
		if err := j.emptyLocked(newGen()); err != nil {
			return err
		}
	}
	return j.appendLocked(line)
}

func (j *Journal) appendLocked(line []byte) error {
	if j.err != nil {
		return j.err
	}
	if n := len(line); n == 0 || line[n-1] != '\n' {
		j.scratch = append(append(j.scratch[:0], line...), '\n')
		line = j.scratch
	}
	n, err := j.w.Write(line)
	j.size += int64(n)
	return err
}

// Pos returns the position past the journal's last byte (zero for nil).
func (j *Journal) Pos() Pos {
	if j == nil {
		return Pos{}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return Pos{j.gen, j.size}
}

// Sync flushes a file journal to stable storage.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil || j.f == nil {
		return j.err
	}
	return j.f.Sync()
}

// Close syncs and closes a file journal. A second Close does nothing.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return nil
	}
	j.err = errClosed
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// empty empties the journal and, if it is readable and gen is not 0,
// starts it with gen's head. A file is closed and reopened empty; if the
// reopen fails the journal stays closed, and Append returns the reopen's
// error.
func (j *Journal) empty(gen uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.emptyLocked(gen)
}

func (j *Journal) emptyLocked(gen uint64) error {
	j.gen, j.head = 0, 0
	if j.err != nil {
		return j.err
	}
	if m, ok := j.w.(*memFile); ok {
		m.b, j.size = m.b[:0], 0
	}
	if j.f != nil {
		j.f.Close()
		f, err := os.OpenFile(j.path, os.O_CREATE|os.O_RDWR|os.O_APPEND|os.O_TRUNC, 0o644)
		if err != nil {
			j.err = err
			return err
		}
		j.f, j.w, j.size = f, f, 0
	}
	if !j.readable || gen == 0 {
		return nil
	}
	head := AppendHead(nil, gen)
	if err := j.appendLocked(head); err != nil {
		return err
	}
	j.gen, j.head = gen, int64(len(head))
	return nil
}

// Resume brings a store, its snapshot just loaded, up to its journal j.
// snap is the generation the snapshot names, 0 for none. A journal in
// another generation than a nonzero snap is covered by the snapshot: it
// is emptied under snap, not replayed. An empty journal with no head
// takes a new generation. Any other journal is handed to replay whole;
// Replay passes over its head.
func (j *Journal) Resume(snap uint64, replay func(io.Reader) error) error {
	switch pos := j.Pos(); {
	case snap != 0 && pos.Gen != snap:
		return j.empty(snap)
	case pos.Gen == 0 && pos.Off == 0:
		return j.empty(newGen())
	default:
		return replay(io.NewSectionReader(j, 0, pos.Off))
	}
}

// ReadAt reads a file or memory journal's bytes at off, as io.ReaderAt
// does.
func (j *Journal) ReadAt(p []byte, off int64) (int, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	r, ok := j.w.(io.ReaderAt)
	switch {
	case j.err != nil:
		return 0, j.err
	case !ok:
		return 0, errors.ErrUnsupported
	}
	return r.ReadAt(p, off)
}

// Compact publishes what write writes as the snapshot at path (none if
// path is empty), then empties j under gen, the generation write was
// handed to name in it: every line j held is in the snapshot, and every
// later one lands in the emptied journal, where no old position reads.
// gen is new for a file or memory journal, and 0 for a nil j or one over
// a plain writer. The caller keeps appends out until it returns.
func (j *Journal) Compact(path string, write func(w io.Writer, gen uint64) error) error {
	var gen uint64
	if j != nil && j.readable {
		gen = newGen()
	}
	if path != "" {
		if err := Replace(path, func(w io.Writer) error { return write(w, gen) }); err != nil {
			return err
		}
	}
	if j == nil {
		return nil
	}
	return j.empty(gen)
}

// Lines is one Read: whole lines, and the position past them. Full says
// more lines follow.
type Lines struct {
	Entries [][]byte `json:",omitempty"`
	Pos     Pos
	Full    bool `json:",omitempty"`
	Skipped int  `json:"-"` // lines passed over because they do not parse
}

// Read returns the whole lines from pos, at most max bytes unless the
// first alone is longer, passing over and counting the ones that do not
// parse (a torn write's fragment). ok is false when pos is not the start
// of a line of this journal: another generation or 0, an offset before
// the first entry, past the end or inside a line.
func (j *Journal) Read(pos Pos, max int64) (res Lines, ok bool) {
	if j == nil {
		return res, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil || !j.readable || pos.Gen == 0 || pos.Gen != j.gen || pos.Off < j.head || pos.Off > j.size {
		return res, false
	}
	r := j.w.(io.ReaderAt)
	if pos.Off > j.head {
		var prev [1]byte
		if _, err := r.ReadAt(prev[:], pos.Off-1); err != nil || prev[0] != '\n' {
			return res, false
		}
	}
	buf := make([]byte, min(j.size-pos.Off, max))
	for {
		if _, err := r.ReadAt(buf, pos.Off); err != nil {
			return res, false
		}
		if bytes.IndexByte(buf, '\n') >= 0 || pos.Off+int64(len(buf)) == j.size {
			break
		}
		buf = make([]byte, min(j.size-pos.Off, 2*int64(len(buf))))
	}
	end := bytes.LastIndexByte(buf, '\n') + 1
	for _, line := range bytes.Split(buf[:end], []byte{'\n'}) {
		switch {
		case len(line) == 0:
		case json.Valid(line):
			res.Entries = append(res.Entries, line)
		default:
			res.Skipped++
		}
	}
	res.Pos = Pos{pos.Gen, pos.Off + int64(end)}
	res.Full = end > 0 && res.Pos.Off < j.size
	return res, true
}

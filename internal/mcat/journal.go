package mcat

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"sync"

	"gosrb/internal/durable"
	"gosrb/internal/types"
)

// The journal is the catalog's append log: every mutation is recorded
// as one JSON line, so a catalog can be rebuilt as snapshot + replayed
// tail. srbd keeps a journal beside its periodic snapshots. Every
// mutation is appended before it is applied, through one seam
// (commitLocked): under one write-lock hold the entry is checked, its
// line is issued as one Write, and only then does memory change. A
// mutation refused by a check or by the journal changes nothing, and one
// still in flight is invisible until its line is written. A killed
// process loses nothing whose Write returned; nothing is fsynced until
// Close, so what a power loss takes is unbounded.
//
// A refused append is latched (journalFailed), and the router refuses
// every later mutation: a torn append can leave part of a line behind,
// and a line appended after it would be lost with it on replay.
//
// A put is one line, an "ingest" entry holding the object with its
// replica rows and the user metadata it was put with. The object's ID is
// handed out earlier (NewObjectID), because it names the replica files;
// one handed out but never committed may be handed out again after a
// crash, and every driver's Create replaces the orphaned file. Every
// other object enters the same way: a container, a container member, a
// link and the five registered kinds are "ingest" entries too, Export
// writes each object as one with its user metadata, and a "register"
// entry, from RegisterObject or handed to Apply, commits like one. A
// delete commits before the broker removes the replica files, so a crash
// between the two leaves an orphaned file, never a row without bytes.

// Entry is one logged mutation, and the unit in which catalog state
// moves between catalogs: boot replay (ReplayCounted), follower
// replication (ApplyEntry) and migration between shards (Export, then
// Apply) commit entries as the mutators do. The payload fields an Op
// uses are set; the rest stay empty.
type Entry struct {
	Op string

	User     *types.User           `json:",omitempty"`
	Group    string                `json:",omitempty"`
	Member   string                `json:",omitempty"`
	Resource *types.Resource       `json:",omitempty"`
	Coll     *types.Collection     `json:",omitempty"`
	Object   *types.DataObject     `json:",omitempty"`
	Path     string                `json:",omitempty"`
	Path2    string                `json:",omitempty"`
	Name     string                `json:",omitempty"`
	Grantee  string                `json:",omitempty"`
	Level    int                   `json:",omitempty"`
	Class    int                   `json:",omitempty"`
	AVU      *types.AVU            `json:",omitempty"`
	NewAVU   *types.AVU            `json:",omitempty"`
	Attr     *types.StructuralAttr `json:",omitempty"`
	Ann      *types.Annotation     `json:",omitempty"`
	Online   bool                  `json:",omitempty"`
	Value    string                `json:",omitempty"`
	Repair   *types.RepairTask     `json:",omitempty"`
	// Meta is the user metadata of an "ingest" entry's object.
	Meta []types.AVU `json:",omitempty"`
}

// Journal receives catalog mutations: a durable.Log that replicas read
// by position (JournalPos). Safe for concurrent use. A file or memory
// journal starts with a head line naming its generation, a random
// nonzero ID it takes each time it is emptied: at creation and at every
// Catalog.Compact. The head is not an entry; replay and ReadJournal
// pass over it. Any other journal, or a file an older binary wrote, has
// no head: generation 0, which names no journal.
type Journal struct {
	mu       sync.Mutex
	log      *durable.Log
	gen      uint64
	head     int64 // the head line's length: where entries start
	readable bool  // a file or memory journal: it takes a head and is read by position
	max      int64 // a memory journal's bound: an append past it empties the journal first
}

// memJournalMax bounds a memory journal: about 4 096 typical lines.
const memJournalMax = 4 << 20

// JournalPos is a replica's position in a journal: its generation and
// the offset of the next line the replica needs. It outlives a restart
// of the writer, and comes off the wire as outside input.
type JournalPos struct {
	Gen uint64
	Off int64
}

// headPrefix starts a journal's head line, {"Gen":<generation>}. No
// entry starts with it: Op is an entry's first field.
var headPrefix = []byte(`{"Gen":`)

// NewJournal wraps a writer as an append log, with no head.
func NewJournal(w io.Writer) *Journal { return &Journal{log: durable.NewLog(w)} }

// NewMemJournal returns a journal kept in memory, read as a file
// journal is, that empties itself past memJournalMax bytes.
func NewMemJournal() *Journal {
	j := &Journal{log: durable.NewMemLog(), readable: true, max: memJournalMax}
	j.empty(newGen()) // memory takes every write
	return j
}

// OpenJournalFile opens (creating or appending) a file-backed journal
// and reads its generation from its head; a file too short for one has
// none.
func OpenJournalFile(path string) (*Journal, error) {
	l, err := durable.OpenLog(path)
	if err != nil {
		return nil, types.E("journal", path, err)
	}
	j := &Journal{log: l, readable: true}
	var buf [64]byte
	n, _ := l.ReadAt(buf[:], 0)
	var h struct{ Gen uint64 }
	if line, _, ok := bytes.Cut(buf[:n], []byte{'\n'}); ok && bytes.HasPrefix(line, headPrefix) && json.Unmarshal(line, &h) == nil {
		j.gen, j.head = h.Gen, int64(len(line)+1)
	}
	return j, nil
}

// newGen returns a random nonzero generation.
func newGen() uint64 { return rand.Uint64N(math.MaxUint64) + 1 }

// Close syncs and closes a file-backed journal; later appends fail.
func (j *Journal) Close() error { return j.log.Close() }

// Sync flushes a file-backed journal to stable storage.
func (j *Journal) Sync() error { return j.log.Sync() }

// Pos returns the position past the journal's last byte (zero for nil).
func (j *Journal) Pos() JournalPos {
	if j == nil {
		return JournalPos{}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return JournalPos{j.gen, j.log.Size()}
}

// empty empties the journal and, if it is readable and gen is not 0,
// starts it with gen's head.
func (j *Journal) empty(gen uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.emptyLocked(gen)
}

func (j *Journal) emptyLocked(gen uint64) error {
	j.gen, j.head = 0, 0
	if err := j.log.Truncate(); err != nil || !j.readable || gen == 0 {
		return err
	}
	head := fmt.Appendf(nil, "%s%d}\n", headPrefix, gen)
	if err := j.log.Append(head); err != nil {
		return err
	}
	j.gen, j.head = gen, int64(len(head))
	return nil
}

// read returns the whole lines from pos, passing over and counting the
// ones that do not parse (a torn write's fragment). ok is false when pos
// is not the start of a line of this journal: another generation or 0,
// an offset before the first entry, past the end or inside a line.
func (j *Journal) read(pos JournalPos, max int64) (res JournalRead, ok bool) {
	if j == nil {
		return res, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	size := j.log.Size()
	if !j.readable || pos.Gen == 0 || pos.Gen != j.gen || pos.Off < j.head || pos.Off > size {
		return res, false
	}
	if pos.Off > j.head {
		var prev [1]byte
		if _, err := j.log.ReadAt(prev[:], pos.Off-1); err != nil || prev[0] != '\n' {
			return res, false
		}
	}
	buf := make([]byte, min(size-pos.Off, max))
	for {
		if _, err := j.log.ReadAt(buf, pos.Off); err != nil {
			return res, false
		}
		if bytes.IndexByte(buf, '\n') >= 0 || pos.Off+int64(len(buf)) == size {
			break
		}
		buf = make([]byte, min(size-pos.Off, 2*int64(len(buf))))
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
	res.Pos = JournalPos{pos.Gen, pos.Off + int64(end)}
	res.Full = end > 0 && res.Pos.Off < size
	return res, true
}

// lineBuf is a journal line being encoded: a buffer and the JSON encoder
// that writes into it, pooled, so encoding a line allocates neither
// (json.Marshal returns every line in a fresh copy). A mutator builds
// its entry here too (lend), with the payload the entry points at, so
// committing it makes no object for the entry: commitLocked copies what
// the catalog keeps of a payload, and keeps only the objects a caller
// hands over (a created or updated row).
type lineBuf struct {
	bytes.Buffer
	enc *json.Encoder
	e   Entry
	p   payload
}

// payload holds what a mutator's entry points at.
type payload struct {
	avu, newAVU types.AVU
	ann         types.Annotation
	attr        types.StructuralAttr
	coll        types.Collection
	user        types.User
	res         types.Resource
	repair      types.RepairTask
}

var linePool = sync.Pool{New: func() any {
	l := new(lineBuf)
	l.enc = json.NewEncoder(&l.Buffer)
	return l
}}

// maxPooledLine bounds the buffers kept for reuse, so one outsized entry
// does not pin its buffer.
const maxPooledLine = 64 << 10

// lend lends a pooled lineBuf with e built in it. The caller points e's
// payload fields into l.p and commits it (commitLine).
func lend(e Entry) *lineBuf {
	l := linePool.Get().(*lineBuf)
	l.e = e
	return l
}

// encodeLine encodes e as one journal line: the bytes json.Marshal(e)
// returns, then '\n'. The caller releases it with free.
func encodeLine(e *Entry) (*lineBuf, error) {
	l := linePool.Get().(*lineBuf)
	if err := l.encode(e); err != nil {
		l.free()
		return nil, err
	}
	return l, nil
}

func (l *lineBuf) encode(e *Entry) error {
	l.Reset()
	return l.enc.Encode(e)
}

// free hands l back to the pool, holding nothing of its entry.
func (l *lineBuf) free() {
	l.e, l.p = Entry{}, payload{}
	if l.Cap() <= maxPooledLine {
		linePool.Put(l)
	}
}

// appendLine issues one line as one Write, which keeps a torn append at
// most one line long. A line handed over without its newline, as
// replication carries a leader's lines, gets one. A memory journal the
// line would take past its bound is emptied first.
func (j *Journal) appendLine(line []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.max > 0 && j.log.Size()+int64(len(line)) >= j.max {
		if err := j.emptyLocked(newGen()); err != nil {
			return err
		}
	}
	return j.log.Append(line)
}

// SetJournal attaches (or with nil detaches) the catalog's append log.
// Mutations made while attached are recorded; reads never are.
func (c *Catalog) SetJournal(j *Journal) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.journal = j
}

// appendLocked is the append step of every commitLocked arm: it writes
// e's line to j, and latches a refused append. Callers hold the write
// lock.
func (c *Catalog) appendLocked(j *Journal, e *Entry, line []byte) error {
	if j == nil {
		return nil
	}
	if line == nil {
		l, err := encodeLine(e)
		if err != nil {
			return types.E(e.Op, e.Target(), err)
		}
		defer l.free()
		line = l.Bytes()
	}
	if err := j.appendLine(line); err != nil {
		c.journalFailed(err)
		return types.E(e.Op, e.Target(), err)
	}
	return nil
}

// journalFailed latches the first journal append error and reports
// every one to the hook. Callers hold c.mu.
func (c *Catalog) journalFailed(err error) {
	c.journalErr.CompareAndSwap(nil, &err)
	if c.onJournalErr != nil {
		c.onJournalErr(err)
	}
}

// JournalErr returns the first journal append error since the catalog
// was created, or nil. The latch is sticky: after a torn append, a line
// appended behind it would be lost with it on replay. The read is one
// atomic load, so the router checks it on every mutation.
func (c *Catalog) JournalErr() error {
	if p := c.journalErr.Load(); p != nil {
		return *p
	}
	return nil
}

// OnJournalError installs a hook called, under the catalog's write
// lock, for every failed journal append (the router counts them as
// mcat.journal.append.errors).
func (c *Catalog) OnJournalError(fn func(error)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onJournalErr = fn
}

// ReplayStats reports one replay pass: how many entries took effect,
// how many the catalog refused, and how many lines were corrupt
// (unparseable or truncated) and had to be skipped. A non-zero Corrupt
// count must be surfaced — a journal that silently loses lines cannot
// be trusted as a replication log.
type ReplayStats struct {
	Applied int
	Refused int
	Corrupt int
}

// ReplayCounted applies a journal stream to the catalog, appending
// nothing. It is used after loading the most recent snapshot; entries
// that conflict with existing state (e.g. replays of mutations already
// captured by the snapshot) are skipped rather than fatal. Corrupt or
// truncated lines are skipped too, so one torn tail write cannot strand
// the entries behind it — but they are counted, and every caller
// surfaces the count (log + metric).
func (c *Catalog) ReplayCounted(r io.Reader) (st ReplayStats, err error) {
	st.Corrupt, err = durable.Replay(r, func(line []byte) bool {
		if bytes.HasPrefix(line, headPrefix) {
			return true
		}
		var e Entry
		if json.Unmarshal(line, &e) != nil {
			return false
		}
		c.mu.Lock()
		if c.commitLocked(nil, &e, nil) == nil {
			st.Applied++
		} else {
			st.Refused++
		}
		c.mu.Unlock()
		return true
	})
	return st, err
}

// Resume brings the catalog, just loaded, up to its journal file j and
// attaches j. A snapshot Compact published names the generation it
// emptied j under; if j is in another, the compaction was cut before
// that, the snapshot holds all of j, and j is emptied under the
// snapshot's generation rather than replayed twice. Otherwise j is
// replayed, and an empty j with no head takes a new generation.
func (c *Catalog) Resume(j *Journal) (ReplayStats, error) {
	c.mu.RLock()
	snap := c.snapGen
	c.mu.RUnlock()
	var st ReplayStats
	var err error
	switch pos := j.Pos(); {
	case snap != 0 && pos.Gen != snap:
		err = j.empty(snap)
	case pos.Gen == 0 && pos.Off == 0:
		err = j.empty(newGen())
	default:
		st, err = c.ReplayCounted(io.NewSectionReader(j.log, 0, pos.Off))
	}
	if err != nil {
		return st, types.E("journal", "", err)
	}
	c.SetJournal(j)
	return st, nil
}

// JournalRead is one ReadJournal: lines, or a snapshot; Pos is where the
// reader is once it applied them, and Full says more lines follow.
type JournalRead struct {
	Entries  [][]byte `json:",omitempty"`
	Snapshot []byte   `json:",omitempty"`
	Pos      JournalPos
	Full     bool `json:",omitempty"`
	Skipped  int  `json:"-"` // lines passed over because they do not parse
}

// ReadJournal reads the attached journal from pos under one hold of the
// read lock, so no append lands meanwhile: the whole lines from pos, at
// most max bytes unless the first alone is longer, or, when pos is not
// a line start of it, a snapshot and the exact position it is at.
func (c *Catalog) ReadJournal(pos JournalPos, max int64) (JournalRead, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if res, ok := c.journal.read(pos, max); ok {
		return res, nil
	}
	var buf bytes.Buffer
	if err := c.saveLocked(&buf, 0); err != nil {
		return JournalRead{}, err
	}
	return JournalRead{Snapshot: buf.Bytes(), Pos: c.journal.Pos()}, nil
}

// JournalPos returns the position past the attached journal's end.
func (c *Catalog) JournalPos() JournalPos {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.journal.Pos()
}

// ApplyEntry commits one encoded journal line — the follower side of
// shard replication. The line itself is appended to the attached
// journal before the entry is applied, so the follower's log stays a
// byte-identical copy of the leader's. An entry the follower's state
// refuses is skipped, as replay skips it; one whose append fails is not
// applied, and the append's error is returned. The caller must be the
// shard's sole writer while replication is active; the router's role
// guard enforces that for routed traffic.
func (c *Catalog) ApplyEntry(line []byte) error {
	var e Entry
	if err := json.Unmarshal(line, &e); err != nil {
		return types.E("replicate", "", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.commitLocked(c.journal, &e, line); err != nil && c.JournalErr() != nil {
		return err
	}
	return nil
}

// Apply commits one entry through the attached journal: the applier
// behind migration between catalogs (Export) and the reshard. A nil
// error means the entry took effect.
func (c *Catalog) Apply(e Entry) error { return c.commit(e) }

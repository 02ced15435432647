package mcat

import (
	"bytes"
	"io"

	"gosrb/internal/durable"
	"gosrb/internal/lend"
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

// Journal receives catalog mutations: the journal of durable's
// compacting log, which replicas read by position (JournalPos).
type Journal = durable.Journal

// JournalPos is a replica's position in a journal (durable.Pos).
type JournalPos = durable.Pos

// memJournalMax bounds a memory journal: about 4 096 typical lines.
const memJournalMax = 4 << 20

// NewMemJournal returns a memory journal bounded by memJournalMax.
func NewMemJournal() *Journal { return durable.NewMemJournal(memJournalMax) }

// OpenJournalFile opens (creating or appending) a file journal.
func OpenJournalFile(path string) (*Journal, error) {
	j, err := durable.OpenJournal(path)
	if err != nil {
		return nil, types.E("journal", path, err)
	}
	return j, nil
}

// lineBuf is a journal line being encoded: its appender, pooled, into
// which entryFields.line writes without making an object. A mutator
// builds its entry here too (lend), with the payload the entry points
// at, so committing it makes no object for the entry: commitLocked
// copies what the catalog keeps of a payload, and keeps only the objects
// a caller hands over (a created or updated row).
type lineBuf struct {
	appender
	e Entry
	p payload
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

// linePool lends the buffers a mutation's entry is built and encoded
// in: one or two are in flight per mutation being committed, which a
// catalog does one at a time. A new buffer starts with room for
// a put's line with a few replicas, so a line appended into it does not
// grow it step by step.
var linePool = lend.NewPool(16, func() *lineBuf { return &lineBuf{appender: appender{b: make([]byte, 0, 2<<10)}} })

// maxPooledLine bounds the buffers kept for reuse, so one outsized entry
// does not pin its buffer.
const maxPooledLine = 64 << 10

// lendLine lends a pooled lineBuf with e built in it. The caller points e's
// payload fields into l.p and commits it (commitLine).
func lendLine(e Entry) *lineBuf {
	l := linePool.Get()
	l.e = e
	return l
}

// encodeLine encodes e as one journal line (entryFields.line): the bytes
// encoding/json marshals e to, then '\n'. The caller releases it with
// free.
func encodeLine(e *Entry) (*lineBuf, error) {
	l := linePool.Get()
	if err := l.encode(e); err != nil {
		l.free()
		return nil, err
	}
	return l, nil
}

func (l *lineBuf) encode(e *Entry) error {
	l.b = l.b[:0]
	return entryFields.line(&l.appender, e)
}

// free hands l back to the pool, holding nothing of its entry.
func (l *lineBuf) free() {
	l.e, l.p = Entry{}, payload{}
	if cap(l.b) <= maxPooledLine {
		linePool.Put(l)
	}
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
		line = l.b
	}
	if err := j.Append(line); err != nil {
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

// maxReusedMeta bounds the Meta list a replay keeps for its next line.
const maxReusedMeta = 16

// ReplayCounted applies a journal stream to the catalog, appending
// nothing. It is used after loading the most recent snapshot; entries
// that conflict with existing state (e.g. replays of mutations already
// captured by the snapshot) are skipped rather than fatal. Corrupt or
// truncated lines are skipped too, so one torn tail write cannot strand
// the entries behind it — but they are counted, and every caller
// surfaces the count (log + metric).
func (c *Catalog) ReplayCounted(r io.Reader) (st ReplayStats, err error) {
	// One reader and one entry serve every line. commitLocked keeps the
	// payloads e points at, but neither e nor its Meta list, which it
	// copies: so the next line reads its Meta into the last one's array,
	// cleared to its capacity as a fresh list's spare room would be, and
	// dropped once a long list has outgrown maxReusedMeta.
	var (
		rd reader
		e  Entry
	)
	st.Corrupt, err = durable.Replay(r, func(line []byte) bool {
		meta := e.Meta[:cap(e.Meta)]
		if len(meta) > maxReusedMeta {
			meta = nil
		}
		clear(meta)
		e = Entry{Meta: meta[:0]}
		if rd.entry(line, &e) != nil {
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
// attaches j: j is replayed unless the loaded snapshot covers it
// (durable.Journal.Resume).
func (c *Catalog) Resume(j *Journal) (ReplayStats, error) {
	c.mu.RLock()
	snap := c.snapGen
	c.mu.RUnlock()
	var st ReplayStats
	err := j.Resume(snap, func(r io.Reader) (err error) {
		st, err = c.ReplayCounted(r)
		return err
	})
	if err != nil {
		return st, types.E("journal", "", err)
	}
	c.SetJournal(j)
	return st, nil
}

// JournalRead is one ReadJournal: lines, or a snapshot; Pos is where the
// reader is once it applied them, and Full says more lines follow.
type JournalRead struct {
	durable.Lines
	Snapshot []byte `json:",omitempty"`
}

// ReadJournal reads the attached journal from pos under one hold of the
// read lock, so no append lands meanwhile: the whole lines from pos, at
// most max bytes unless the first alone is longer, or, when pos is not
// a line start of it, a snapshot and the exact position it is at.
func (c *Catalog) ReadJournal(pos JournalPos, max int64) (JournalRead, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if res, ok := c.journal.Read(pos, max); ok {
		return JournalRead{Lines: res}, nil
	}
	var buf bytes.Buffer
	if err := c.saveLocked(&buf, 0); err != nil {
		return JournalRead{}, err
	}
	return JournalRead{Lines: durable.Lines{Pos: c.journal.Pos()}, Snapshot: buf.Bytes()}, nil
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
	if err := readEntry(line, &e); err != nil {
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

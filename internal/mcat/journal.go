package mcat

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
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

// Journal receives catalog mutations: a durable.Log that also shows
// each appended line to an observer. Safe for concurrent use.
type Journal struct {
	mu  sync.Mutex
	log *durable.Log
	obs func(line []byte)
}

// NewJournal wraps a writer as an append log.
func NewJournal(w io.Writer) *Journal { return &Journal{log: durable.NewLog(w)} }

// SetObserver installs a hook that sees every appended entry as its
// encoded JSON line (no trailing newline). The shard replication log
// subscribes here, so the journal doubles as the replication stream.
// The line's buffer is reused once the hook returns: a hook that keeps
// the line copies it.
func (j *Journal) SetObserver(fn func(line []byte)) {
	j.mu.Lock()
	j.obs = fn
	j.mu.Unlock()
}

// OpenJournalFile opens (creating or appending) a file-backed journal.
func OpenJournalFile(path string) (*Journal, error) {
	l, err := durable.OpenLog(path)
	if err != nil {
		return nil, types.E("journal", path, err)
	}
	return &Journal{log: l}, nil
}

// Close syncs and closes a file-backed journal; later appends fail.
func (j *Journal) Close() error { return j.log.Close() }

// Sync flushes a file-backed journal to stable storage.
func (j *Journal) Sync() error { return j.log.Sync() }

// Truncate empties a file-backed journal, which appends go on into; a
// journal on any other writer is left as it is (see Catalog.Compact).
func (j *Journal) Truncate() error { return j.log.Truncate() }

// lineBuf is a journal line being encoded: a buffer and the JSON encoder
// that writes into it, pooled, so encoding a line allocates neither
// (json.Marshal returns every line in a fresh copy).
type lineBuf struct {
	bytes.Buffer
	enc *json.Encoder
}

var linePool = sync.Pool{New: func() any {
	l := new(lineBuf)
	l.enc = json.NewEncoder(&l.Buffer)
	return l
}}

// maxPooledLine bounds the buffers kept for reuse, so one outsized entry
// does not pin its buffer.
const maxPooledLine = 64 << 10

// encodeLine encodes e as one journal line: the bytes json.Marshal(e)
// returns, then '\n'. The caller releases it with free.
func encodeLine(e *Entry) (*lineBuf, error) {
	l := linePool.Get().(*lineBuf)
	l.Reset()
	if err := l.enc.Encode(e); err != nil {
		l.free()
		return nil, err
	}
	return l, nil
}

func (l *lineBuf) free() {
	if l.Cap() <= maxPooledLine {
		linePool.Put(l)
	}
}

// appendLine issues one line as one Write, which keeps a torn append at
// most one line long. A line handed over without its newline, as
// replication carries a leader's lines, gets one.
func (j *Journal) appendLine(line []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.log.Append(line); err != nil {
		return err
	}
	if j.obs != nil {
		if n := len(line); n > 0 && line[n-1] == '\n' {
			line = line[:n-1]
		}
		j.obs(line)
	}
	return nil
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

// ReplayFileCounted replays a journal file (see ReplayCounted); a
// missing file applies nothing.
func (c *Catalog) ReplayFileCounted(path string) (ReplayStats, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return ReplayStats{}, nil
		}
		return ReplayStats{}, types.E("replay", path, err)
	}
	defer f.Close()
	return c.ReplayCounted(f)
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
func (c *Catalog) Apply(e Entry) error { return c.commit(&e) }

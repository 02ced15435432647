package mcat

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"sync"

	"gosrb/internal/acl"
	"gosrb/internal/types"
)

// The journal is the catalog's append log: every mutation is recorded
// as one JSON line, so a catalog can be rebuilt as snapshot + replayed
// tail. srbd keeps a journal beside its periodic snapshots. Each line
// is one Write to the file, issued before the mutation returns, so a
// killed process loses nothing whose Write returned; nothing is fsynced
// until Close, so what a power loss takes is unbounded.
//
// A put is one line, an "ingest" entry holding the object with its
// replica rows and the user metadata it was put with, and it is
// appended before it is applied: a put whose append fails is neither
// applied nor acknowledged, and a put still in flight is invisible until
// its line is written. The object's ID is handed out earlier
// (NewObjectID), because it names the replica files; one handed out but
// never committed may be handed out again after a crash, and every
// driver's Create replaces the orphaned file. Every other object enters
// the same way: a container, a container member, a link and the five
// registered kinds are "ingest" entries too, Export writes each object
// as one with its user metadata, and a "register" entry, from
// RegisterObject or handed to Apply, commits like one. The other
// mutations are applied and then logged, one line each: an object's
// update (a replica added, a container's append), move and delete,
// collections, metadata, ACLs, accounts, resources and the repair queue.

// Entry is one logged mutation, and the unit in which catalog state
// moves between catalogs: boot replay, follower replication and
// migration between shards (Export) all hand entries to Apply. The
// payload fields an Op uses are set; the rest stay empty.
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

// Journal receives catalog mutations. Safe for concurrent use.
type Journal struct {
	mu  sync.Mutex
	w   io.Writer
	f   *os.File // when file-backed, for Sync
	obs func(line []byte)
	// scratch is the reused line-plus-newline buffer of AppendRaw.
	scratch []byte
}

// NewJournal wraps a writer as an append log.
func NewJournal(w io.Writer) *Journal {
	j := &Journal{w: w}
	if f, ok := w.(*os.File); ok {
		j.f = f
	}
	return j
}

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
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, types.E("journal", path, err)
	}
	return NewJournal(f), nil
}

// Close syncs and closes a file-backed journal.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Sync()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	return err
}

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

func (j *Journal) append(e *Entry) error {
	l, err := encodeLine(e)
	if err != nil {
		return err
	}
	defer l.free()
	return j.write(l.Bytes())
}

// AppendRaw appends one pre-encoded journal line verbatim. The shard
// replication path uses it so a follower's journal holds byte-identical
// copies of the leader's entries.
func (j *Journal) AppendRaw(line []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	// The line-plus-newline copy lives in a scratch buffer reused under
	// j.mu.
	j.scratch = append(append(j.scratch[:0], line...), '\n')
	return j.writeLocked(j.scratch)
}

// write appends one encoded line, its newline included.
func (j *Journal) write(line []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.writeLocked(line)
}

// writeLocked issues line as one Write, which keeps a torn append at
// most one line long. Callers hold j.mu.
func (j *Journal) writeLocked(line []byte) error {
	if _, err := j.w.Write(line); err != nil {
		return err
	}
	if j.obs != nil {
		j.obs(line[:len(line)-1])
	}
	return nil
}

// Sync flushes a file-backed journal to stable storage.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f != nil {
		return j.f.Sync()
	}
	return nil
}

// SetJournal attaches (or with nil detaches) the catalog's append log
// and returns the one it replaces. Mutations made while attached are
// recorded; reads never are.
func (c *Catalog) SetJournal(j *Journal) *Journal {
	c.mu.Lock()
	defer c.mu.Unlock()
	old := c.journal
	c.journal = j
	return old
}

// log records a mutation if a journal is attached. Callers hold the
// write lock, which also serialises entries in mutation order.
func (c *Catalog) log(e Entry) {
	if c.journal != nil {
		// The mutation is already applied in memory and stays applied: a
		// journal I/O error must not corrupt catalog state. It is latched
		// instead, so the router refuses every later mutation.
		if err := c.journal.append(&e); err != nil {
			c.journalFailed(err)
		}
	}
}

// journalFailed latches the first journal append error and reports
// every one to the hook. From the first failure on, memory holds
// mutations the journal does not — acknowledging more would only widen
// what a restart (or a follower replicating this journal) loses.
// Callers hold c.mu.
func (c *Catalog) journalFailed(err error) {
	c.journalErr.CompareAndSwap(nil, &err)
	if c.onJournalErr != nil {
		c.onJournalErr(err)
	}
}

// JournalErr returns the first journal append error since the catalog
// was created, or nil. The latch is sticky: the lost entries are not
// recoverable by a later successful append. The read is one atomic
// load, so the router checks it on every mutation.
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

// ReplayStats reports one replay pass: how many entries took effect
// and how many lines were corrupt (unparseable or truncated) and had
// to be skipped. A non-zero Corrupt count must be surfaced — a journal
// that silently loses lines cannot be trusted as a replication log.
type ReplayStats struct {
	Applied int
	Corrupt int
}

// ReplayCounted applies a journal stream to the catalog. It is used
// after loading the most recent snapshot; entries that conflict with
// existing state (e.g. replays of mutations already captured by the
// snapshot) are skipped rather than fatal. Corrupt or truncated lines
// are skipped too, so one torn tail write cannot strand the entries
// behind it — but they are counted, and every caller surfaces the count
// (log + metric).
func (c *Catalog) ReplayCounted(r io.Reader) (st ReplayStats, err error) {
	// Detach the journal while replaying: replayed mutations must not be
	// re-logged.
	saved := c.SetJournal(nil)
	defer c.SetJournal(saved)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e Entry
		if err := json.Unmarshal(line, &e); err != nil {
			st.Corrupt++
			continue
		}
		if c.Apply(e) == nil {
			st.Applied++
		}
	}
	return st, sc.Err()
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

// ApplyEntry applies one encoded journal line to the catalog — the
// follower side of shard replication. The entry is applied with the
// journal detached (no re-log through the mutation methods) and then,
// if it took effect, appended verbatim to the attached journal so the
// follower's own log stays a byte-identical copy of the leader's.
// The caller must be the shard's sole writer while replication is
// active; the router's role guard enforces that for routed traffic.
func (c *Catalog) ApplyEntry(line []byte) (bool, error) {
	var e Entry
	if err := json.Unmarshal(line, &e); err != nil {
		return false, types.E("replicate", "", err)
	}
	saved := c.SetJournal(nil)
	applied := c.Apply(e) == nil
	c.SetJournal(saved)
	if applied && saved != nil {
		if err := saved.AppendRaw(line); err != nil {
			c.mu.Lock()
			c.journalFailed(err)
			c.mu.Unlock()
		}
	}
	return applied, nil
}

// Apply executes one entry: the single applier behind boot replay,
// follower replication (ApplyEntry) and migration between catalogs
// (Export). It goes through the catalog's own mutators, and its
// identity-preserving inserts ("mkcoll", "register", "ingest") are
// journaled like them when a journal is attached; an "ingest" applies
// whole or not at all. A nil error means the entry took effect.
func (c *Catalog) Apply(e Entry) error {
	switch e.Op {
	case "adduser":
		if e.User != nil {
			return c.AddUser(*e.User)
		}
	case "deluser":
		return c.DeleteUser(e.Name)
	case "addgroup":
		return c.AddGroup(e.Group)
	case "addtogroup":
		return c.AddToGroup(e.Group, e.Member)
	case "rmfromgroup":
		return c.RemoveFromGroup(e.Group, e.Member)
	case "addresource":
		if e.Resource != nil {
			return c.AddResource(*e.Resource)
		}
	case "delresource":
		return c.DeleteResource(e.Name)
	case "setonline":
		return c.SetResourceOnline(e.Name, e.Online)
	case "replpolicy":
		return c.SetResourcePolicy(e.Name, e.Value)
	case "repairenq":
		if e.Repair != nil {
			c.restoreRepair(*e.Repair)
			return nil
		}
	case "repairdone":
		c.CompleteRepair(e.Name)
		return nil
	case "mkcoll", "linkcoll":
		// A link is logged as the whole linked collection, so a dangling
		// target is restored as it was.
		if e.Coll != nil {
			return c.insertColl(e.Op, *e.Coll)
		}
	case "rmcoll":
		return c.DeleteColl(e.Path)
	case "movecoll":
		return c.MoveColl(e.Path, e.Path2)
	case "register", "ingest":
		if e.Object != nil {
			return c.insertObject(&e, nil)
		}
	case "update":
		if e.Object != nil {
			return c.replaceObject(e.Object)
		}
	case "delete":
		return c.DeleteObject(e.Path)
	case "move":
		return c.MoveObject(e.Path, e.Path2, e.Name)
	case "setacl":
		return c.SetACL(e.Path, e.Grantee, acl.Level(e.Level))
	case "setresourceacl":
		return c.SetResourceACL(e.Name, e.Grantee, acl.Level(e.Level))
	case "addmeta":
		if e.AVU != nil {
			return c.AddMeta(e.Path, types.MetaClass(e.Class), *e.AVU)
		}
	case "updmeta":
		if e.AVU != nil && e.NewAVU != nil {
			return changed(c.UpdateMeta(e.Path, types.MetaClass(e.Class), e.AVU.Name, e.AVU.Value, *e.NewAVU))
		}
	case "delmeta":
		if e.AVU != nil {
			return changed(c.DeleteMeta(e.Path, types.MetaClass(e.Class), e.AVU.Name, e.AVU.Value))
		}
	case "copymeta":
		return c.CopyMeta(e.Path, e.Path2)
	case "filemeta":
		return c.AttachFileMeta(e.Path, e.Path2)
	case "structural":
		if e.Attr != nil {
			return c.SetStructural(e.Path, *e.Attr)
		}
	case "delstructural":
		return c.DeleteStructural(e.Path, e.Name)
	case "annotate":
		if e.Ann != nil {
			return c.AddAnnotation(e.Path, *e.Ann)
		}
	case "delannotations":
		return changed(c.DeleteAnnotations(e.Path, e.Name))
	}
	return types.E("apply", e.Op, types.ErrInvalid)
}

// changed turns a mutator's count of records changed into Apply's
// contract: an entry that changed nothing did not take effect.
func changed(n int, err error) error {
	if err == nil && n == 0 {
		return types.ErrNotFound
	}
	return err
}

// insertColl adds a collection exactly as given (see insertCollLocked).
func (c *Catalog) insertColl(op string, col types.Collection) error {
	col.Path = types.CleanPath(col.Path)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.insertCollLocked(op, col); err != nil {
		return err
	}
	c.log(Entry{Op: op, Coll: c.colls[col.Path]})
	return nil
}

// insertObject commits a "register" or "ingest" entry: the object with
// its identity (ID, replicas, timestamps) as given — unlike
// RegisterObject it allocates nothing — and, for an ingest, the user
// metadata it was put with. Under one write-lock hold the whole entry is
// checked, appended to the journal as line (encoded here when nil and a
// journal is attached), and only then applied, so an entry refused by a
// check or by the journal changes nothing in memory. The collection must
// exist and not be a link, the path and the ID must be free, and every
// metadata name must be non-empty.
func (c *Catalog) insertObject(e *Entry, line []byte) error {
	cp := cloneObject(e.Object)
	cp.Collection = types.CleanPath(cp.Collection)
	path := cp.Path()
	var meta []metaEntry
	if len(e.Meta) > 0 {
		meta = make([]metaEntry, len(e.Meta))
		for i, avu := range e.Meta {
			meta[i] = metaEntry{Class: types.MetaUser, AVU: avu}
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.checkNewObjectLocked(e.Op, path, cp.Collection, cp.Name); err != nil {
		return err
	}
	if cp.ID == 0 {
		return types.E(e.Op, path, types.ErrInvalid)
	}
	if other, ok := c.byID[cp.ID]; ok {
		return types.E(e.Op, other, types.ErrExists)
	}
	for _, avu := range e.Meta {
		if avu.Name == "" {
			return types.E(e.Op, path, types.ErrInvalid)
		}
	}
	if c.journal != nil {
		if line == nil {
			l, err := encodeLine(&Entry{Op: e.Op, Object: cp, Meta: e.Meta})
			if err != nil {
				return types.E(e.Op, path, err)
			}
			defer l.free()
			line = l.Bytes()
		}
		if err := c.journal.write(line); err != nil {
			c.journalFailed(err)
			return types.E(e.Op, path, err)
		}
	}
	c.objects[path] = cp
	c.byID[cp.ID] = path
	c.addChildObj(cp.Collection, path)
	if cp.ID >= c.nextID {
		c.nextID = c.alignIDLocked(cp.ID + 1)
	}
	if meta != nil {
		c.meta[path] = meta
		for _, avu := range e.Meta {
			c.indexAdd(avu.Name, avu.Value, path)
		}
	}
	return nil
}

// replaceObject overwrites an object's mutable state (UpdateObject
// results are journaled as whole objects).
func (c *Catalog) replaceObject(o *types.DataObject) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	path := o.Path()
	cur, ok := c.objects[path]
	if !ok {
		return types.E("update", path, types.ErrNotFound)
	}
	cp := cloneObject(o)
	cp.ID = cur.ID
	c.objects[path] = cp
	c.log(Entry{Op: "update", Object: cp})
	return nil
}

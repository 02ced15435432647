package mcat

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"sync"

	"gosrb/internal/acl"
	"gosrb/internal/types"
)

// The journal is the catalog's append log: every mutation is recorded
// as one JSON line, so a catalog can be rebuilt as snapshot + replayed
// tail. srbd keeps a journal beside its periodic snapshots; a crash
// loses at most the mutations after the last fsync of the journal
// writer rather than everything since the last snapshot.

// journalEntry is one logged mutation. Exactly one payload field is set
// per Op.
type journalEntry struct {
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

func (j *Journal) append(e *journalEntry) error {
	line, err := json.Marshal(e)
	if err != nil {
		return err
	}
	return j.AppendRaw(line)
}

// AppendRaw appends one pre-encoded journal line verbatim. The shard
// replication path uses it so a follower's journal holds byte-identical
// copies of the leader's entries.
func (j *Journal) AppendRaw(line []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	// One Write per line keeps a torn append at most one line long; the
	// line-plus-newline copy lives in a scratch buffer reused under j.mu.
	j.scratch = append(append(j.scratch[:0], line...), '\n')
	if _, err := j.w.Write(j.scratch); err != nil {
		return err
	}
	if j.obs != nil {
		j.obs(line)
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

// SetJournal attaches (or with nil detaches) the catalog's append log.
// Mutations made while attached are recorded; reads never are.
func (c *Catalog) SetJournal(j *Journal) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.journal = j
}

// log records a mutation if a journal is attached. Callers hold the
// write lock, which also serialises entries in mutation order.
func (c *Catalog) log(e journalEntry) {
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
	c.mu.Lock()
	saved := c.journal
	c.journal = nil
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		c.journal = saved
		c.mu.Unlock()
	}()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e journalEntry
		if err := json.Unmarshal(line, &e); err != nil {
			st.Corrupt++
			continue
		}
		if c.apply(&e) {
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
	var e journalEntry
	if err := json.Unmarshal(line, &e); err != nil {
		return false, types.E("replicate", "", err)
	}
	c.mu.Lock()
	saved := c.journal
	c.journal = nil
	c.mu.Unlock()
	applied := c.apply(&e)
	c.mu.Lock()
	c.journal = saved
	c.mu.Unlock()
	if applied && saved != nil {
		if err := saved.AppendRaw(line); err != nil {
			c.mu.Lock()
			c.journalFailed(err)
			c.mu.Unlock()
		}
	}
	return applied, nil
}

// apply executes one journal entry, reporting whether it took effect.
func (c *Catalog) apply(e *journalEntry) bool {
	switch e.Op {
	case "adduser":
		return e.User != nil && c.AddUser(*e.User) == nil
	case "deluser":
		return c.DeleteUser(e.Name) == nil
	case "addgroup":
		return c.AddGroup(e.Group) == nil
	case "addtogroup":
		return c.AddToGroup(e.Group, e.Member) == nil
	case "rmfromgroup":
		return c.RemoveFromGroup(e.Group, e.Member) == nil
	case "addresource":
		return e.Resource != nil && c.AddResource(*e.Resource) == nil
	case "delresource":
		return c.DeleteResource(e.Name) == nil
	case "setonline":
		return c.SetResourceOnline(e.Name, e.Online) == nil
	case "replpolicy":
		return c.SetResourcePolicy(e.Name, e.Value) == nil
	case "repairenq":
		return e.Repair != nil && c.restoreRepair(e.Repair)
	case "repairdone":
		c.CompleteRepair(e.Name)
		return true
	case "mkcoll":
		return e.Coll != nil && c.restoreColl(e.Coll)
	case "rmcoll":
		return c.DeleteColl(e.Path) == nil
	case "movecoll":
		return c.MoveColl(e.Path, e.Path2) == nil
	case "register":
		return e.Object != nil && c.restoreObject(e.Object)
	case "update":
		return e.Object != nil && c.replaceObject(e.Object)
	case "delete":
		return c.DeleteObject(e.Path) == nil
	case "move":
		return c.MoveObject(e.Path, e.Path2, e.Name) == nil
	case "setacl":
		lvl := acl.Level(e.Level)
		return c.SetACL(e.Path, e.Grantee, lvl) == nil
	case "setresourceacl":
		return c.SetResourceACL(e.Name, e.Grantee, acl.Level(e.Level)) == nil
	case "addmeta":
		return e.AVU != nil && c.AddMeta(e.Path, types.MetaClass(e.Class), *e.AVU) == nil
	case "updmeta":
		if e.AVU == nil || e.NewAVU == nil {
			return false
		}
		n, err := c.UpdateMeta(e.Path, types.MetaClass(e.Class), e.AVU.Name, e.AVU.Value, *e.NewAVU)
		return err == nil && n > 0
	case "delmeta":
		if e.AVU == nil {
			return false
		}
		n, err := c.DeleteMeta(e.Path, types.MetaClass(e.Class), e.AVU.Name, e.AVU.Value)
		return err == nil && n > 0
	case "copymeta":
		return c.CopyMeta(e.Path, e.Path2) == nil
	case "filemeta":
		return c.AttachFileMeta(e.Path, e.Path2) == nil
	case "structural":
		return e.Attr != nil && c.SetStructural(e.Path, *e.Attr) == nil
	case "delstructural":
		return c.DeleteStructural(e.Path, e.Name) == nil
	case "annotate":
		return e.Ann != nil && c.AddAnnotation(e.Path, *e.Ann) == nil
	case "delannotations":
		n, err := c.DeleteAnnotations(e.Path, e.Name)
		return err == nil && n > 0
	case "linkcoll":
		// Logged as the full linked collection (LinkTarget included);
		// restored structurally so a dangling target is preserved too.
		return e.Coll != nil && c.restoreColl(e.Coll)
	default:
		return false
	}
}

// restoreColl re-creates a collection exactly (journal replay path).
func (c *Catalog) restoreColl(col *types.Collection) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.colls[col.Path]; ok {
		return false
	}
	if _, ok := c.colls[types.Parent(col.Path)]; !ok {
		return false
	}
	cp := *col
	c.colls[col.Path] = &cp
	c.addChildColl(types.Parent(col.Path), col.Path)
	return true
}

// restoreObject re-registers an object with its original identity.
func (c *Catalog) restoreObject(o *types.DataObject) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	path := o.Path()
	if _, ok := c.objects[path]; ok {
		return false
	}
	if _, ok := c.colls[o.Collection]; !ok {
		return false
	}
	cp := cloneObject(o)
	c.objects[path] = cp
	c.byID[cp.ID] = path
	c.addChildObj(o.Collection, path)
	if cp.ID >= c.nextID {
		c.nextID = c.alignIDLocked(cp.ID + 1)
	}
	return true
}

// replaceObject overwrites an object's mutable state (replay of
// UpdateObject results, which are journaled as whole objects).
func (c *Catalog) replaceObject(o *types.DataObject) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	path := o.Path()
	cur, ok := c.objects[path]
	if !ok {
		return false
	}
	cp := cloneObject(o)
	cp.ID = cur.ID
	c.objects[path] = cp
	return true
}

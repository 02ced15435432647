package mcat

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"gosrb/internal/acl"
	"gosrb/internal/durable"
	"gosrb/internal/types"
)

// A snapshot is the catalog's journal, compacted: this head line, then
// the entries Export("/") returns as journal lines. The head carries
// what no entry can: the root collection's row, and the next object ID,
// which a deleted object can leave above every live one. It counts the
// entries, so a snapshot cut at a line boundary does not load. Gen is
// the generation Compact emptied the journal under (Resume).
type snapshotHead struct {
	Version int
	NextID  types.ObjectID
	Entries int               `json:",omitempty"`
	Root    *types.Collection `json:",omitempty"`
	Gen     uint64            `json:",omitempty"`
}

// snapshotVersion is the head's Version. Version 1 was the whole catalog
// as one JSON document (legacySnapshot), which Load still reads.
const snapshotVersion = 2

// legacySnapshot is a version-1 snapshot: the head's first two fields
// and every primary map, on one line. It is read, never written.
type legacySnapshot struct {
	snapshotHead
	Objects    map[string]types.DataObject
	Colls      map[string]types.Collection
	Resources  map[string]types.Resource
	Users      map[string]types.User
	Groups     map[string]types.Group
	ACLs       map[string]acl.List
	Meta       map[string][]metaEntry
	Structural map[string][]types.StructuralAttr
	Annots     map[string][]types.Annotation
	FileMeta   map[string][]string
	Repairs    map[string]types.RepairTask
}

// Save writes a consistent snapshot of the catalog.
func (c *Catalog) Save(w io.Writer) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.saveLocked(w, 0)
}

func (c *Catalog) saveLocked(w io.Writer, gen uint64) error {
	entries := c.exportLocked("/")
	bw := bufio.NewWriterSize(w, 64<<10)
	line, err := appendHead(nil, &snapshotHead{Version: snapshotVersion, NextID: c.nextID, Entries: len(entries), Root: c.colls["/"], Gen: gen})
	if err == nil {
		_, err = bw.Write(line)
	}
	for i := 0; i < len(entries) && err == nil; i++ {
		if line, err = appendEntry(line[:0], &entries[i]); err == nil {
			_, err = bw.Write(line)
		}
	}
	if err != nil {
		return err
	}
	return bw.Flush()
}

// Load replaces the catalog's contents with a snapshot. It commits the
// snapshot's entries into an empty catalog through commitLocked, the
// path journal replay takes, and swaps the result in whole: a line that
// does not parse, an entry refused or a count short of the head's fails
// the load and leaves the catalog as it was. A legacy snapshot's maps,
// wrapped in a scratch catalog, are saved as a snapshot and loaded.
func (c *Catalog) Load(r io.Reader) error {
	br := bufio.NewReaderSize(r, 64<<10)
	first, err := br.ReadBytes('\n')
	var s legacySnapshot
	if err == nil || err == io.EOF {
		err = json.Unmarshal(first, &s)
	}
	switch {
	case err != nil:
		return types.E("load", "", err)
	case s.Version == 1:
		old := &Catalog{tables: tables{nextID: s.NextID, objects: rows(s.Objects), colls: rows(s.Colls),
			resources: rows(s.Resources), users: rows(s.Users), groups: rows(s.Groups), acls: s.ACLs, meta: s.Meta,
			structural: s.Structural, annots: s.Annots, fileMeta: s.FileMeta, repairs: rows(s.Repairs),
		}}
		var buf bytes.Buffer
		if err := old.saveLocked(&buf, 0); err != nil {
			return types.E("load", "", err)
		}
		return c.Load(&buf)
	case s.Version != snapshotVersion:
		return types.E("load", "", types.ErrInvalid)
	}
	root := types.Collection{}
	if s.Root != nil {
		root = *s.Root
	}
	root.Path = "/"
	c.mu.RLock()
	fresh := &Catalog{tables: newTables(&root), idOffset: c.idOffset, idStride: c.idStride, now: c.now}
	c.mu.RUnlock()
	fresh.nextID = fresh.alignIDLocked(max(s.NextID, 1))
	st, err := fresh.ReplayCounted(br)
	if err == nil && (st.Applied != s.Entries || st.Refused+st.Corrupt > 0) {
		err = fmt.Errorf("%d of %d entries applied (%d refused, %d corrupt): %w", st.Applied, s.Entries, st.Refused, st.Corrupt, types.ErrInvalid)
	}
	if err != nil {
		return types.E("load", "", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tables, c.snapGen = fresh.tables, s.Gen
	return nil
}

// rows keys a pointer to each of m's rows. A null row decodes as a zero
// one, which the load refuses where the row needs a name or an ID.
func rows[V any](m map[string]V) map[string]*V {
	out := make(map[string]*V, len(m))
	for k, v := range m {
		out[k] = &v
	}
	return out
}

// Compact publishes the catalog's snapshot at path (none if path is
// empty), then empties the attached journal under a new generation the
// snapshot names, under one hold of the read lock: every line the
// journal held is in the snapshot, and every later one lands in the
// emptied journal, where no old position reads.
func (c *Catalog) Compact(path string) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	j := c.journal
	var gen uint64
	if j != nil && j.readable {
		gen = newGen()
	}
	if path != "" {
		if err := durable.Replace(path, func(w io.Writer) error { return c.saveLocked(w, gen) }); err != nil {
			return types.E("save", path, err)
		}
	}
	if j == nil {
		return nil
	}
	return j.empty(gen)
}

// LoadFile loads a snapshot from path.
func (c *Catalog) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return types.E("load", path, err)
	}
	defer f.Close()
	return c.Load(f)
}

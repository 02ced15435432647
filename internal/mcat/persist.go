package mcat

import (
	"bufio"
	"fmt"
	"io"
	"os"

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

// Save writes a consistent snapshot of the catalog.
func (c *Catalog) Save(w io.Writer) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.saveLocked(w, 0)
}

func (c *Catalog) saveLocked(w io.Writer, gen uint64) error {
	entries := c.exportLocked("/")
	bw := bufio.NewWriterSize(w, 64<<10)
	// One appender serves every line: the tables' steps put it on the heap.
	var a appender
	err := headFields.line(&a, &snapshotHead{Version: snapshotVersion, NextID: c.nextID, Entries: len(entries), Root: c.colls["/"], Gen: gen})
	if err == nil {
		_, err = bw.Write(a.b)
	}
	for i := 0; i < len(entries) && err == nil; i++ {
		a.b = a.b[:0]
		if err = entryFields.line(&a, &entries[i]); err == nil {
			_, err = bw.Write(a.b)
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
// the load and leaves the catalog as it was. A head of Version 1 is a
// legacy snapshot (loadLegacy).
func (c *Catalog) Load(r io.Reader) error {
	br := bufio.NewReaderSize(r, 64<<10)
	first, err := br.ReadBytes('\n')
	var h snapshotHead
	if err == nil || err == io.EOF {
		err = readHead(first, &h)
	}
	switch {
	case err != nil:
		return types.E("load", "", err)
	case h.Version == 1:
		return c.loadLegacy(first)
	case h.Version != snapshotVersion:
		return types.E("load", "", types.ErrInvalid)
	}
	root := types.Collection{}
	if h.Root != nil {
		root = *h.Root
	}
	root.Path = "/"
	c.mu.RLock()
	fresh := &Catalog{tables: newTables(&root), idOffset: c.idOffset, idStride: c.idStride, now: c.now}
	c.mu.RUnlock()
	fresh.nextID = fresh.alignIDLocked(max(h.NextID, 1))
	st, err := fresh.ReplayCounted(br)
	if err == nil && (st.Applied != h.Entries || st.Refused+st.Corrupt > 0) {
		err = fmt.Errorf("%d of %d entries applied (%d refused, %d corrupt): %w", st.Applied, h.Entries, st.Refused, st.Corrupt, types.ErrInvalid)
	}
	if err != nil {
		return types.E("load", "", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tables, c.snapGen = fresh.tables, h.Gen
	return nil
}

// Compact publishes the catalog's snapshot at path (none if path is
// empty) and empties the attached journal under the generation the
// snapshot names (durable.Journal.Compact), under one hold of the read
// lock, so no append lands between the two.
func (c *Catalog) Compact(path string) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if err := c.journal.Compact(path, c.saveLocked); err != nil {
		return types.E("save", path, err)
	}
	return nil
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

package mcat

import (
	"bytes"
	"encoding/json"

	"gosrb/internal/acl"
	"gosrb/internal/types"
)

// legacySnapshot is a version-1 snapshot: the head's first two fields
// and every primary map, on one line. It is read, never written, and
// read by encoding/json: a format of its own, met once, on the first
// boot after an upgrade.
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

// loadLegacy loads the legacy snapshot doc: its maps, wrapped in a
// scratch catalog, are saved as a snapshot and loaded.
func (c *Catalog) loadLegacy(doc []byte) error {
	var s legacySnapshot
	if err := json.Unmarshal(doc, &s); err != nil {
		return types.E("load", "", err)
	}
	old := &Catalog{tables: tables{nextID: s.NextID, objects: rows(s.Objects), colls: rows(s.Colls),
		resources: rows(s.Resources), users: rows(s.Users), groups: rows(s.Groups), acls: s.ACLs, meta: s.Meta,
		structural: s.Structural, annots: s.Annots, fileMeta: s.FileMeta, repairs: rows(s.Repairs),
	}}
	var buf bytes.Buffer
	if err := old.saveLocked(&buf, 0); err != nil {
		return types.E("load", "", err)
	}
	return c.Load(&buf)
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

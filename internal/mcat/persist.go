package mcat

import (
	"encoding/json"
	"io"
	"os"

	"gosrb/internal/acl"
	"gosrb/internal/durable"
	"gosrb/internal/types"
)

// snapshot is the JSON-serialisable image of the catalog. Secondary
// indexes (children, byID, attribute index) are rebuilt at load.
type snapshot struct {
	Version    int
	NextID     types.ObjectID
	Objects    map[string]*types.DataObject
	Colls      map[string]*types.Collection
	Resources  map[string]*types.Resource
	Users      map[string]*types.User
	Groups     map[string]*types.Group
	ACLs       map[string]acl.List
	Meta       map[string][]metaEntry
	Structural map[string][]types.StructuralAttr
	Annots     map[string][]types.Annotation
	FileMeta   map[string][]string
	Repairs    map[string]*types.RepairTask `json:",omitempty"`
}

// snapshotVersion guards format evolution.
const snapshotVersion = 1

// Save writes a consistent snapshot of the catalog as JSON.
func (c *Catalog) Save(w io.Writer) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s := snapshot{
		Version:    snapshotVersion,
		NextID:     c.nextID,
		Objects:    c.objects,
		Colls:      c.colls,
		Resources:  c.resources,
		Users:      c.users,
		Groups:     c.groups,
		ACLs:       c.acls,
		Meta:       c.meta,
		Structural: c.structural,
		Annots:     c.annots,
		FileMeta:   c.fileMeta,
		Repairs:    c.repairs,
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&s)
}

// Load replaces the catalog contents with a snapshot previously written
// by Save, rebuilding every secondary index.
func (c *Catalog) Load(r io.Reader) error {
	var s snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return types.E("load", "", err)
	}
	if s.Version != snapshotVersion {
		return types.E("load", "", types.ErrInvalid)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID = c.alignIDLocked(s.NextID)
	c.objects = orEmptyObjects(s.Objects)
	c.colls = orEmptyColls(s.Colls)
	c.resources = orEmptyResources(s.Resources)
	c.users = orEmptyUsers(s.Users)
	c.groups = orEmptyGroups(s.Groups)
	c.acls = s.ACLs
	if c.acls == nil {
		c.acls = make(map[string]acl.List)
	}
	c.meta = s.Meta
	if c.meta == nil {
		c.meta = make(map[string][]metaEntry)
	}
	c.structural = s.Structural
	if c.structural == nil {
		c.structural = make(map[string][]types.StructuralAttr)
	}
	c.annots = s.Annots
	if c.annots == nil {
		c.annots = make(map[string][]types.Annotation)
	}
	c.fileMeta = s.FileMeta
	if c.fileMeta == nil {
		c.fileMeta = make(map[string][]string)
	}
	c.repairs = s.Repairs
	if c.repairs == nil {
		c.repairs = make(map[string]*types.RepairTask)
	}
	if _, ok := c.colls["/"]; !ok {
		c.colls["/"] = &types.Collection{Path: "/"}
	}
	c.rebuildIndexesLocked()
	return nil
}

func orEmptyObjects(m map[string]*types.DataObject) map[string]*types.DataObject {
	if m == nil {
		return make(map[string]*types.DataObject)
	}
	return m
}

func orEmptyColls(m map[string]*types.Collection) map[string]*types.Collection {
	if m == nil {
		return make(map[string]*types.Collection)
	}
	return m
}

func orEmptyResources(m map[string]*types.Resource) map[string]*types.Resource {
	if m == nil {
		return make(map[string]*types.Resource)
	}
	return m
}

func orEmptyUsers(m map[string]*types.User) map[string]*types.User {
	if m == nil {
		return make(map[string]*types.User)
	}
	return m
}

func orEmptyGroups(m map[string]*types.Group) map[string]*types.Group {
	if m == nil {
		return make(map[string]*types.Group)
	}
	return m
}

// rebuildIndexesLocked reconstructs byID, the child indexes and the
// attribute index from primary state, whose object rows it clips as
// commitLocked clips a row it stores. Callers hold the write lock.
func (c *Catalog) rebuildIndexesLocked() {
	c.byID = make(map[types.ObjectID]string, len(c.objects))
	c.childColls = make(map[string]map[string]string)
	c.childObjs = make(map[string]map[string]string)
	c.attrIndex = make(map[string]map[string]map[string]bool)
	for p := range c.colls {
		if p == "/" {
			continue
		}
		c.addChildColl(types.Parent(p), p)
	}
	c.canary.reset()
	for p, o := range c.objects {
		clipRow(o)
		c.canary.store(o)
		c.byID[o.ID] = p
		c.addChildObj(o.Collection, p)
		if o.ID >= c.nextID {
			c.nextID = o.ID + 1
		}
	}
	for p, entries := range c.meta {
		for _, e := range entries {
			if queryableClass(e.Class) {
				c.indexAdd(e.AVU.Name, e.AVU.Value, p)
			}
		}
	}
}

// SaveFile snapshots the catalog to path atomically (durable.Replace).
func (c *Catalog) SaveFile(path string) error {
	return types.E("save", path, durable.Replace(path, c.Save))
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

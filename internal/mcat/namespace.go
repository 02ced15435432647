package mcat

import (
	"slices"
	"sort"

	"gosrb/internal/types"
)

// ---- collections ----

// MkColl creates a collection whose parent must already exist.
func (c *Catalog) MkColl(path, owner string) error {
	path = types.CleanPath(path)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.mkCollLocked(path, owner); err != nil {
		return err
	}
	c.log(Entry{Op: "mkcoll", Coll: c.colls[path]})
	return nil
}

func (c *Catalog) mkCollLocked(path, owner string) error {
	return c.insertCollLocked("mkcoll", types.Collection{Path: path, Owner: owner, CreatedAt: c.now()})
}

// insertCollLocked adds col as given (owner, creation time, link
// target). Its parent must exist and its path must be free. Callers
// hold the write lock.
func (c *Catalog) insertCollLocked(op string, col types.Collection) error {
	switch {
	case col.Path == "/" || c.pathExistsLocked(col.Path):
		return types.E(op, col.Path, types.ErrExists)
	case !types.ValidName(types.Base(col.Path)):
		return types.E(op, col.Path, types.ErrInvalid)
	}
	parent := types.Parent(col.Path)
	if _, ok := c.colls[parent]; !ok {
		return types.E(op, parent, types.ErrNotFound)
	}
	c.colls[col.Path] = &col
	c.addChildColl(parent, col.Path)
	return nil
}

// MkCollAll creates a collection and any missing ancestors.
func (c *Catalog) MkCollAll(path, owner string) error {
	path = types.CleanPath(path)
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, a := range append(types.Ancestors(path), path) {
		if a == "/" {
			continue
		}
		if _, ok := c.colls[a]; ok {
			continue
		}
		if err := c.mkCollLocked(a, owner); err != nil {
			return err
		}
		c.log(Entry{Op: "mkcoll", Coll: c.colls[a]})
	}
	return nil
}

func (c *Catalog) addChildColl(parent, child string) {
	m := c.childColls[parent]
	if m == nil {
		m = make(map[string]string)
		c.childColls[parent] = m
	}
	m[types.Base(child)] = child
}

func (c *Catalog) addChildObj(parent, child string) {
	m := c.childObjs[parent]
	if m == nil {
		m = make(map[string]string)
		c.childObjs[parent] = m
	}
	m[types.Base(child)] = child
}

// GetColl returns a collection, resolving nothing: links are returned
// as stored (LinkTarget set).
func (c *Catalog) GetColl(path string) (types.Collection, error) {
	path = types.CleanPath(path)
	c.mu.RLock()
	defer c.mu.RUnlock()
	col, ok := c.colls[path]
	if !ok {
		return types.Collection{}, types.E("getcoll", path, types.ErrNotFound)
	}
	return *col, nil
}

// ResolveColl follows linked sub-collections (one hop; chains are
// prevented at link time) and returns the effective collection path.
func (c *Catalog) ResolveColl(path string) (string, error) {
	path = types.CleanPath(path)
	c.mu.RLock()
	defer c.mu.RUnlock()
	col, ok := c.colls[path]
	if !ok {
		return "", types.E("resolvecoll", path, types.ErrNotFound)
	}
	if col.LinkTarget != "" {
		if _, ok := c.colls[col.LinkTarget]; !ok {
			return "", types.E("resolvecoll", col.LinkTarget, types.ErrNotFound)
		}
		return col.LinkTarget, nil
	}
	return path, nil
}

// LinkColl registers linkPath as a linked sub-collection pointing at
// target. Linking to a link collapses to the parent (paper §5: "An
// attempt to link to another link object will result in a direct link
// to the parent object").
func (c *Catalog) LinkColl(target, linkPath, owner string) error {
	target, linkPath = types.CleanPath(target), types.CleanPath(linkPath)
	c.mu.Lock()
	defer c.mu.Unlock()
	tc, ok := c.colls[target]
	if !ok {
		return types.E("linkcoll", target, types.ErrNotFound)
	}
	if tc.LinkTarget != "" {
		target = tc.LinkTarget
	}
	if types.WithinOrEqual(target, linkPath) {
		return types.E("linkcoll", linkPath, types.ErrInvalid)
	}
	if err := c.mkCollLocked(linkPath, owner); err != nil {
		return err
	}
	c.colls[linkPath].LinkTarget = target
	c.log(Entry{Op: "linkcoll", Coll: c.colls[linkPath]})
	return nil
}

// ListColl lists the direct members of a collection: sub-collections
// first, then objects, each sorted by name.
func (c *Catalog) ListColl(path string) ([]types.Stat, error) {
	path = types.CleanPath(path)
	c.mu.RLock()
	defer c.mu.RUnlock()
	col, ok := c.colls[path]
	if !ok {
		return nil, types.E("list", path, types.ErrNotFound)
	}
	if col.LinkTarget != "" {
		path = col.LinkTarget
	}
	n := len(c.childColls[path]) + len(c.childObjs[path])
	if n == 0 {
		return nil, nil
	}
	out := make([]types.Stat, 0, n)
	for _, p := range sortedVals(c.childColls[path]) {
		sub := c.colls[p]
		st := types.Stat{Path: p, IsCollect: true, Owner: sub.Owner, ModifiedAt: sub.CreatedAt}
		out = append(out, st)
	}
	for _, p := range sortedVals(c.childObjs[path]) {
		out = append(out, statOf(p, c.objects[p]))
	}
	return out, nil
}

// statOf describes the object stored under path p (its key in the
// object and child indexes, so the path is not joined again).
func statOf(p string, o *types.DataObject) types.Stat {
	return types.Stat{
		Path:       p,
		Kind:       o.Kind,
		DataType:   o.DataType,
		Owner:      o.Owner,
		Size:       o.Size,
		ModifiedAt: o.ModifiedAt,
		Replicas:   len(o.Replicas),
		Container:  o.Container,
	}
}

func sortedVals(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// DeleteColl removes an empty collection (or a linked sub-collection,
// which never "contains" anything of its own).
func (c *Catalog) DeleteColl(path string) error {
	path = types.CleanPath(path)
	c.mu.Lock()
	defer c.mu.Unlock()
	col, ok := c.colls[path]
	if !ok {
		return types.E("rmcoll", path, types.ErrNotFound)
	}
	if path == "/" {
		return types.E("rmcoll", path, types.ErrInvalid)
	}
	if col.LinkTarget == "" {
		if len(c.childColls[path]) > 0 || len(c.childObjs[path]) > 0 {
			return types.E("rmcoll", path, types.ErrNotEmpty)
		}
	}
	delete(c.colls, path)
	c.removeChildColl(types.Parent(path), path)
	c.dropPathState(path)
	c.log(Entry{Op: "rmcoll", Path: path})
	return nil
}

func (c *Catalog) removeChildColl(parent, child string) {
	if m := c.childColls[parent]; m != nil {
		delete(m, types.Base(child))
	}
}

func (c *Catalog) removeChildObj(parent, child string) {
	if m := c.childObjs[parent]; m != nil {
		delete(m, types.Base(child))
	}
}

// CollExists reports whether path is a collection.
func (c *Catalog) CollExists(path string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.colls[types.CleanPath(path)]
	return ok
}

// SubColls returns every collection strictly under root, sorted.
func (c *Catalog) SubColls(root string) []string {
	root = types.CleanPath(root)
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []string
	for p := range c.colls {
		if types.Within(root, p) {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// ---- objects ----

// RegisterObject enters a new data object into the catalog, assigning
// its ID, as one "register" entry committed like an ingest (insertObject).
// The parent collection must exist and the name must be free; a linked
// collection resolves to its target.
func (c *Catalog) RegisterObject(o *types.DataObject) (types.ObjectID, error) {
	c.mu.Lock()
	o.Collection = types.CleanPath(o.Collection)
	if col, ok := c.colls[o.Collection]; ok && col.LinkTarget != "" {
		o.Collection = col.LinkTarget
	}
	err := c.checkNewObjectLocked("register", o.Path(), o.Collection, o.Name)
	if err == nil {
		o.ID = c.nextID
		c.nextID = c.alignIDLocked(o.ID + 1)
		if o.CreatedAt.IsZero() {
			o.CreatedAt = c.now()
		}
	}
	c.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if o.ModifiedAt.IsZero() {
		o.ModifiedAt = o.CreatedAt
	}
	if err := c.insertObject(&Entry{Op: "register", Object: o}, nil); err != nil {
		return 0, err
	}
	return o.ID, nil
}

// NewObjectID hands out the ID a put of path commits under (Ingest): a
// put needs it before its first byte is stored, because the ID names
// the replica files. The path must be free and its collection must
// exist and not be a link (the caller resolves links). Nothing is
// journaled, so an ID that is never committed is a gap, and after a
// restart it may be handed out again (see journal.go).
func (c *Catalog) NewObjectID(path string) (types.ObjectID, error) {
	path = types.CleanPath(path)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.checkNewObjectLocked("ingest", path, types.Parent(path), types.Base(path)); err != nil {
		return 0, err
	}
	id := c.nextID
	c.nextID = c.alignIDLocked(id + 1)
	return id, nil
}

// Ingest commits one put as one journal entry, "ingest": o, holding the
// ID NewObjectID handed out, its size, checksum and replica rows, and
// the user metadata it was put with. Zero timestamps are stamped into o
// from the catalog clock; o is then what the catalog stores. The entry
// is encoded before the write lock is taken and appended before it is
// applied: a put refused by a check or by the journal leaves nothing in
// memory, and the journal's error is latched as for every mutation.
func (c *Catalog) Ingest(o *types.DataObject, meta []types.AVU) error {
	o.Collection = types.CleanPath(o.Collection)
	if o.CreatedAt.IsZero() {
		c.mu.RLock()
		o.CreatedAt = c.now()
		c.mu.RUnlock()
	}
	if o.ModifiedAt.IsZero() {
		o.ModifiedAt = o.CreatedAt
	}
	e := &Entry{Op: "ingest", Object: o, Meta: meta}
	l, err := encodeLine(e)
	if err != nil {
		return types.E("ingest", o.Path(), err)
	}
	defer l.free()
	return c.insertObject(e, l.Bytes())
}

// checkNewObjectLocked reports why no object named name can be made in
// coll, at path: an invalid name, a collection that is missing or a
// link, or a path already taken. Callers hold the write lock.
func (c *Catalog) checkNewObjectLocked(op, path, coll, name string) error {
	if !types.ValidName(name) {
		return types.E(op, path, types.ErrInvalid)
	}
	col, ok := c.colls[coll]
	switch {
	case !ok:
		return types.E(op, coll, types.ErrNotFound)
	case col.LinkTarget != "":
		return types.E(op, coll, types.ErrInvalid)
	case c.pathExistsLocked(path):
		return types.E(op, path, types.ErrExists)
	}
	return nil
}

// GetObject returns a copy of the object at path (links not followed).
func (c *Catalog) GetObject(path string) (types.DataObject, error) {
	path = types.CleanPath(path)
	c.mu.RLock()
	defer c.mu.RUnlock()
	o, ok := c.objects[path]
	if !ok {
		return types.DataObject{}, types.E("getobj", path, types.ErrNotFound)
	}
	return *cloneObject(o), nil
}

// ResolveObject returns the object at path, following one link hop.
func (c *Catalog) ResolveObject(path string) (types.DataObject, error) {
	o, err := c.GetObject(path)
	if err != nil {
		return o, err
	}
	if o.Kind == types.KindLink {
		target, err := c.GetObject(o.LinkTarget)
		if err != nil {
			return types.DataObject{}, types.E("resolve", o.LinkTarget, types.ErrNotFound)
		}
		return target, nil
	}
	return o, nil
}

// GetObjectByID returns a copy of the object with the given ID.
func (c *Catalog) GetObjectByID(id types.ObjectID) (types.DataObject, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	path, ok := c.byID[id]
	if !ok {
		return types.DataObject{}, types.E("getobj", "", types.ErrNotFound)
	}
	return *cloneObject(c.objects[path]), nil
}

// UpdateObject applies fn to the object at path under the write lock.
// If fn returns an error the object is left unchanged.
func (c *Catalog) UpdateObject(path string, fn func(*types.DataObject) error) error {
	path = types.CleanPath(path)
	c.mu.Lock()
	defer c.mu.Unlock()
	o, ok := c.objects[path]
	if !ok {
		return types.E("update", path, types.ErrNotFound)
	}
	cp := cloneObject(o)
	if err := fn(cp); err != nil {
		return err
	}
	// Identity fields may not change through UpdateObject.
	cp.ID, cp.Name, cp.Collection = o.ID, o.Name, o.Collection
	cp.ModifiedAt = c.now()
	c.objects[path] = cp
	c.log(Entry{Op: "update", Object: cp})
	return nil
}

// DeleteObject removes the object and all its per-path state.
func (c *Catalog) DeleteObject(path string) error {
	path = types.CleanPath(path)
	c.mu.Lock()
	defer c.mu.Unlock()
	o, ok := c.objects[path]
	if !ok {
		return types.E("delete", path, types.ErrNotFound)
	}
	delete(c.objects, path)
	delete(c.byID, o.ID)
	c.removeChildObj(o.Collection, path)
	c.dropPathState(path)
	// An attachment naming the object would point at nothing.
	for p, files := range c.fileMeta {
		if i := slices.Index(files, path); i >= 0 {
			c.fileMeta[p] = slices.Delete(files, i, i+1)
		}
		if len(c.fileMeta[p]) == 0 {
			delete(c.fileMeta, p)
		}
	}
	c.log(Entry{Op: "delete", Path: path})
	return nil
}

// MoveObject renames an object to a new collection and/or base name.
// Per the paper this is the logical move: metadata, ACLs and
// annotations follow the object unchanged.
func (c *Catalog) MoveObject(oldPath, newColl, newName string) error {
	oldPath = types.CleanPath(oldPath)
	newColl = types.CleanPath(newColl)
	c.mu.Lock()
	defer c.mu.Unlock()
	o, ok := c.objects[oldPath]
	if !ok {
		return types.E("move", oldPath, types.ErrNotFound)
	}
	if newName == "" {
		newName = o.Name
	}
	if !types.ValidName(newName) {
		return types.E("move", newName, types.ErrInvalid)
	}
	col, ok := c.colls[newColl]
	if !ok {
		return types.E("move", newColl, types.ErrNotFound)
	}
	if col.LinkTarget != "" {
		newColl = col.LinkTarget
	}
	newPath := types.Join(newColl, newName)
	if newPath == oldPath {
		return nil
	}
	if _, ok := c.objects[newPath]; ok {
		return types.E("move", newPath, types.ErrExists)
	}
	if _, ok := c.colls[newPath]; ok {
		return types.E("move", newPath, types.ErrExists)
	}
	c.removeChildObj(o.Collection, oldPath)
	delete(c.objects, oldPath)
	o.Collection, o.Name = newColl, newName
	c.objects[newPath] = o
	c.byID[o.ID] = newPath
	c.addChildObj(newColl, newPath)
	c.rekeyPathState(oldPath, newPath)
	c.log(Entry{Op: "move", Path: oldPath, Path2: newColl, Name: newName})
	return nil
}

// MoveColl moves a whole sub-collection: every descendant collection
// and object is rebased, preserving metadata and ACLs, and the paths
// they name inside the subtree (link targets, containers, attached
// metadata files) move with them, as Entry.Rebase moves them between
// shards. This is the primitive behind the paper's persistence claim:
// "data can be replicated onto new storage systems by a recursive
// directory movement command, without changing the name by which the
// data is discovered".
func (c *Catalog) MoveColl(oldPath, newPath string) error {
	oldPath, newPath = types.CleanPath(oldPath), types.CleanPath(newPath)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.colls[oldPath]; !ok {
		return types.E("movecoll", oldPath, types.ErrNotFound)
	}
	if oldPath == "/" || types.WithinOrEqual(oldPath, newPath) {
		return types.E("movecoll", newPath, types.ErrInvalid)
	}
	if _, ok := c.colls[newPath]; ok {
		return types.E("movecoll", newPath, types.ErrExists)
	}
	if _, ok := c.objects[newPath]; ok {
		return types.E("movecoll", newPath, types.ErrExists)
	}
	newParent := types.Parent(newPath)
	if _, ok := c.colls[newParent]; !ok {
		return types.E("movecoll", newParent, types.ErrNotFound)
	}
	// Collect the subtree up front; mutating while ranging is unsafe.
	var subColls, subObjs []string
	for p := range c.colls {
		if types.WithinOrEqual(oldPath, p) {
			subColls = append(subColls, p)
		}
	}
	for p := range c.objects {
		if types.Within(oldPath, p) {
			subObjs = append(subObjs, p)
		}
	}
	// Detach from the old parent.
	c.removeChildColl(types.Parent(oldPath), oldPath)
	// Rebase collections.
	for _, p := range subColls {
		np := types.Rebase(oldPath, newPath, p)
		entry := c.colls[p]
		delete(c.colls, p)
		entry.Path = np
		entry.LinkTarget = rebaseIn(oldPath, newPath, entry.LinkTarget)
		c.colls[np] = entry
		c.rekeyPathState(p, np)
		for i, f := range c.fileMeta[np] {
			c.fileMeta[np][i] = rebaseIn(oldPath, newPath, f)
		}
		// child index maps are rebuilt below
		delete(c.childColls, p)
		delete(c.childObjs, p)
	}
	// Rebase objects and rebuild child indexes.
	for _, p := range subObjs {
		np := types.Rebase(oldPath, newPath, p)
		o := c.objects[p]
		delete(c.objects, p)
		o.Collection = types.Parent(np)
		o.LinkTarget = rebaseIn(oldPath, newPath, o.LinkTarget)
		o.Container = rebaseIn(oldPath, newPath, o.Container)
		c.objects[np] = o
		c.byID[o.ID] = np
		c.rekeyPathState(p, np)
		for i, f := range c.fileMeta[np] {
			c.fileMeta[np][i] = rebaseIn(oldPath, newPath, f)
		}
	}
	for _, p := range subColls {
		np := types.Rebase(oldPath, newPath, p)
		if np == newPath {
			continue
		}
		c.addChildColl(types.Parent(np), np)
	}
	for _, p := range subObjs {
		np := types.Rebase(oldPath, newPath, p)
		c.addChildObj(types.Parent(np), np)
	}
	c.addChildColl(newParent, newPath)
	c.log(Entry{Op: "movecoll", Path: oldPath, Path2: newPath})
	return nil
}

// ObjectsIn returns copies of the objects directly inside collection.
func (c *Catalog) ObjectsIn(coll string) []types.DataObject {
	coll = types.CleanPath(coll)
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []types.DataObject
	for _, p := range sortedVals(c.childObjs[coll]) {
		out = append(out, *cloneObject(c.objects[p]))
	}
	return out
}

// SubtreeObjects returns the paths of every object inside root
// (recursively), sorted.
func (c *Catalog) SubtreeObjects(root string) []string {
	root = types.CleanPath(root)
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []string
	for p := range c.objects {
		if types.Within(root, p) || root == "/" {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// LinksTo returns the paths of link objects pointing at target.
func (c *Catalog) LinksTo(target string) []string {
	target = types.CleanPath(target)
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []string
	for p, o := range c.objects {
		if o.Kind == types.KindLink && o.LinkTarget == target {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// ObjectsInContainer returns the paths of objects stored inside the
// container at containerPath, sorted.
func (c *Catalog) ObjectsInContainer(containerPath string) []string {
	containerPath = types.CleanPath(containerPath)
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []string
	for p, o := range c.objects {
		if o.Container == containerPath {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}

// cloneObject deep-copies the mutable slices of an object.
func cloneObject(o *types.DataObject) *types.DataObject {
	cp := *o
	cp.Replicas = append([]types.Replica(nil), o.Replicas...)
	cp.Pins = append([]types.Pin(nil), o.Pins...)
	cp.Versions = append([]types.Version(nil), o.Versions...)
	cp.Alternates = append([]types.AltSpec(nil), o.Alternates...)
	if o.SQL != nil {
		s := *o.SQL
		cp.SQL = &s
	}
	if o.Method != nil {
		m := *o.Method
		m.Args = append([]string(nil), o.Method.Args...)
		cp.Method = &m
	}
	return &cp
}

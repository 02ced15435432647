package mcat

import (
	"slices"
	"sort"

	"gosrb/internal/lend"
	"gosrb/internal/types"
)

// ---- collections ----

// MkColl creates a collection whose parent must already exist.
func (c *Catalog) MkColl(path, owner string) error {
	return c.commitLine(collLine("mkcoll", types.Collection{Path: path, Owner: owner}))
}

// collLine lends a line holding an op ("mkcoll" or "linkcoll") entry
// for col.
func collLine(op string, col types.Collection) *lineBuf {
	l := lendLine(Entry{Op: op})
	l.p.coll = col
	l.e.Coll = &l.p.coll
	return l
}

// MkCollAll creates a collection and any missing ancestors, one
// "mkcoll" entry each.
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
		if err := c.commitLineLocked(collLine("mkcoll", types.Collection{Path: a, Owner: owner})); err != nil {
			return err
		}
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
	return c.commitLineLocked(collLine("linkcoll", types.Collection{Path: linkPath, Owner: owner, LinkTarget: target}))
}

// ListColl lists the direct members of a collection: sub-collections
// first, then objects, each sorted by name. It is AppendList into a
// fresh slice: nil for an empty collection.
func (c *Catalog) ListColl(path string) ([]types.Stat, error) {
	return c.AppendList(nil, path)
}

// AppendList appends the direct members of a collection to dst, as
// ListColl lists them. It sorts the members' paths in a scratch from
// namesPool and makes nothing when dst has room for them. On error dst
// comes back unchanged.
func (c *Catalog) AppendList(dst []types.Stat, path string) ([]types.Stat, error) {
	path = types.CleanPath(path)
	c.mu.RLock()
	defer c.mu.RUnlock()
	col, ok := c.colls[path]
	if !ok {
		return dst, types.E("list", path, types.ErrNotFound)
	}
	if col.LinkTarget != "" {
		path = col.LinkTarget
	}
	colls, objs := c.childColls[path], c.childObjs[path]
	if len(colls)+len(objs) == 0 {
		return dst, nil
	}
	dst = slices.Grow(dst, len(colls)+len(objs))
	sp := namesPool.Get()
	names := sortedPaths((*sp)[:0], colls)
	for _, p := range names {
		sub := c.colls[p]
		dst = append(dst, types.Stat{Path: p, IsCollect: true, Owner: sub.Owner, ModifiedAt: sub.CreatedAt})
	}
	clear(names)
	names = sortedPaths(names[:0], objs)
	for _, p := range names {
		dst = append(dst, statOf(p, c.objects[p]))
	}
	putNames(sp, names)
	return dst, nil
}

// namesPool lends the scratch a listing sorts a collection's member
// paths in: one is in flight per listing being built. maxPooledNames
// bounds what goes back, so one huge collection's scratch is not kept.
var namesPool = lend.NewPool(8, func() *[]string { return new([]string) })

const maxPooledNames = 4096

// putNames clears names, sp's scratch as the caller last cut it, and
// hands sp back to namesPool.
func putNames(sp *[]string, names []string) {
	clear(names)
	if cap(names) <= maxPooledNames {
		*sp = names[:0]
		namesPool.Put(sp)
	}
}

// sortedPaths appends the paths a child index holds to names, sorted.
// The members of one collection share their parent, so this is their
// order by name.
func sortedPaths(names []string, m map[string]string) []string {
	for _, p := range m {
		names = append(names, p)
	}
	slices.Sort(names)
	return names
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

// DeleteColl removes an empty collection (or a linked sub-collection,
// which never "contains" anything of its own).
func (c *Catalog) DeleteColl(path string) error {
	return c.commit(Entry{Op: "rmcoll", Path: types.CleanPath(path)})
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
// its ID, as one "register" entry committed like an ingest. The parent
// collection must exist and the name must be free; a linked collection
// resolves to its target.
func (c *Catalog) RegisterObject(o *types.DataObject) (types.ObjectID, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	o.Collection = types.CleanPath(o.Collection)
	if col, ok := c.colls[o.Collection]; ok && col.LinkTarget != "" {
		o.Collection = col.LinkTarget
	}
	o.ID = c.nextID
	if o.CreatedAt.IsZero() {
		o.CreatedAt = c.now()
	}
	if o.ModifiedAt.IsZero() {
		o.ModifiedAt = o.CreatedAt
	}
	if err := c.commitLineLocked(lendLine(Entry{Op: "register", Object: o})); err != nil {
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
// the user metadata it was put with; path is o's path, which the caller
// has already built. Zero timestamps are stamped into o from the catalog
// clock; o is then what the catalog stores. The entry is encoded before
// the write lock is taken and appended before it is applied: a put
// refused by a check or by the journal leaves nothing in memory, and the
// journal's error is latched as for every mutation.
func (c *Catalog) Ingest(path string, o *types.DataObject, meta []types.AVU) error {
	o.Collection = types.CleanPath(o.Collection)
	if o.CreatedAt.IsZero() {
		c.mu.RLock()
		o.CreatedAt = c.now()
		c.mu.RUnlock()
	}
	if o.ModifiedAt.IsZero() {
		o.ModifiedAt = o.CreatedAt
	}
	l := lendLine(Entry{Op: "ingest", Object: o, Meta: meta})
	defer l.free()
	if err := l.encode(&l.e); err != nil {
		return types.E("ingest", path, err)
	}
	l.e.Path = path
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.commitLocked(c.journal, &l.e, l.b)
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

// GetObject returns the object at path (links not followed). The row
// is the stored one: its slices and payloads are shared and read-only
// (a caller that must change them changes a types.DataObject.Clone).
func (c *Catalog) GetObject(path string) (types.DataObject, error) {
	path = types.CleanPath(path)
	c.mu.RLock()
	defer c.mu.RUnlock()
	o, ok := c.objects[path]
	if !ok {
		return types.DataObject{}, types.E("getobj", path, types.ErrNotFound)
	}
	c.canary.check(path, o)
	return *o, nil
}

// ResolveObject returns the object at path, following one link hop,
// shared as GetObject shares it.
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

// GetObjectByID returns the object with the given ID, shared as
// GetObject shares it.
func (c *Catalog) GetObjectByID(id types.ObjectID) (types.DataObject, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	path, ok := c.byID[id]
	if !ok {
		return types.DataObject{}, types.E("getobj", "", types.ErrNotFound)
	}
	o := c.objects[path]
	c.canary.check(path, o)
	return *o, nil
}

// UpdateObject applies fn to a clone of the object at path under the
// write lock, and the clone replaces the row. If fn returns an error the
// object is left unchanged.
func (c *Catalog) UpdateObject(path string, fn func(*types.DataObject) error) error {
	path = types.CleanPath(path)
	c.mu.Lock()
	defer c.mu.Unlock()
	o, ok := c.objects[path]
	if !ok {
		return types.E("update", path, types.ErrNotFound)
	}
	cp := o.Clone()
	if err := fn(cp); err != nil {
		return err
	}
	// Identity fields may not change through UpdateObject.
	cp.ID, cp.Name, cp.Collection = o.ID, o.Name, o.Collection
	cp.ModifiedAt = c.now()
	return c.commitLineLocked(lendLine(Entry{Op: "update", Object: cp}))
}

// DeleteObject removes the object and all its per-path state.
func (c *Catalog) DeleteObject(path string) error {
	return c.commit(Entry{Op: "delete", Path: types.CleanPath(path)})
}

// MoveObject renames an object to a new collection and/or base name.
// Per the paper this is the logical move: metadata, ACLs and
// annotations follow the object unchanged.
func (c *Catalog) MoveObject(oldPath, newColl, newName string) error {
	return c.commit(Entry{Op: "move", Path: types.CleanPath(oldPath), Path2: types.CleanPath(newColl), Name: newName})
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
	return c.commit(Entry{Op: "movecoll", Path: oldPath, Path2: newPath})
}

// moveSubtreeLocked applies a "movecoll" entry its commitLocked arm has
// checked. Callers hold the write lock.
func (c *Catalog) moveSubtreeLocked(oldPath, newPath string) {
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
	// Rebase objects, each a new row (a stored one never changes), and
	// rebuild child indexes.
	for _, p := range subObjs {
		np := types.Rebase(oldPath, newPath, p)
		c.canary.retire(p, c.objects[p])
		o := *c.objects[p]
		delete(c.objects, p)
		o.Collection = types.Parent(np)
		o.LinkTarget = rebaseIn(oldPath, newPath, o.LinkTarget)
		o.Container = rebaseIn(oldPath, newPath, o.Container)
		c.objects[np] = &o
		c.canary.store(&o)
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
	c.addChildColl(types.Parent(newPath), newPath)
}

// ObjectsIn returns the objects directly inside collection, shared as
// GetObject shares them.
func (c *Catalog) ObjectsIn(coll string) []types.DataObject {
	coll = types.CleanPath(coll)
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []types.DataObject
	sp := namesPool.Get()
	names := sortedPaths((*sp)[:0], c.childObjs[coll])
	for _, p := range names {
		o := c.objects[p]
		c.canary.check(p, o)
		out = append(out, *o)
	}
	putNames(sp, names)
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

// clipRow clips the slices of a row about to be stored, so a reader
// that appends to one gets an array of its own, never the row's.
func clipRow(o *types.DataObject) {
	o.Replicas, o.Pins = slices.Clip(o.Replicas), slices.Clip(o.Pins)
	o.Versions, o.Alternates = slices.Clip(o.Versions), slices.Clip(o.Alternates)
	if o.Method != nil {
		o.Method.Args = slices.Clip(o.Method.Args)
	}
}

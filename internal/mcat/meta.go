package mcat

import (
	"sort"
	"strings"

	"gosrb/internal/acl"
	"gosrb/internal/types"
)

// ---- access control ----

// SetACL grants (or with acl.None revokes) a level on the target path
// for a grantee (user, "g:"+group, or acl.Public).
func (c *Catalog) SetACL(path, grantee string, level acl.Level) error {
	return c.commit(Entry{Op: "setacl", Path: types.CleanPath(path), Grantee: grantee, Level: int(level)})
}

// GetACL returns the explicit ACL stored on path (no inheritance).
func (c *Catalog) GetACL(path string) (acl.List, error) {
	path = types.CleanPath(path)
	c.mu.RLock()
	defer c.mu.RUnlock()
	if !c.pathExistsLocked(path) {
		return nil, types.E("getacl", path, types.ErrNotFound)
	}
	return c.acls[path].Clone(), nil
}

// EffectiveLevel computes the user's effective permission on path: the
// maximum of the owner grant (owners hold Own; admins Curate), the
// path's explicit ACL, and ACLs inherited from every ancestor
// collection ("control access at multiple levels — collections,
// datasets, resources", paper §2).
func (c *Catalog) EffectiveLevel(path, user string) acl.Level {
	path = types.CleanPath(path)
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.effectiveLevelLocked(path, user)
}

func (c *Catalog) effectiveLevelLocked(path, user string) acl.Level {
	if c.isAdminLocked(user) {
		return acl.Curate
	}
	groups := c.groupsOfLocked(user)
	best := acl.None
	if o, ok := c.objects[path]; ok && o.Owner == user {
		best = acl.Own
	}
	if col, ok := c.colls[path]; ok && col.Owner == user {
		best = acl.Curate // collection owners curate their collections
	}
	// Walk path, then each ancestor up to the root, as prefixes of path.
	for p := path; ; {
		if l := c.acls[p].LevelFor(user, groups); l > best {
			best = l
		}
		// Owning an ancestor collection grants curate over the subtree.
		if p != path && acl.Curate > best {
			if col, ok := c.colls[p]; ok && col.Owner == user {
				best = acl.Curate
			}
		}
		if p == "/" {
			return best
		}
		if i := strings.LastIndexByte(p, '/'); i > 0 {
			p = p[:i]
		} else {
			p = "/"
		}
	}
}

// SetResourceACL controls who may store onto a resource.
func (c *Catalog) SetResourceACL(resource, grantee string, level acl.Level) error {
	return c.commit(Entry{Op: "setresourceacl", Name: resource, Grantee: grantee, Level: int(level)})
}

// ResourceLevel returns the user's level on a resource. Resources with
// no explicit ACL are writable by every registered user.
func (c *Catalog) ResourceLevel(resource, user string) acl.Level {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.isAdminLocked(user) {
		return acl.Curate
	}
	l, ok := c.acls["resource:"+resource]
	if !ok || len(l) == 0 {
		return acl.Write
	}
	return l.LevelFor(user, c.groupsOfLocked(user))
}

func (c *Catalog) pathExistsLocked(path string) bool {
	if _, ok := c.objects[path]; ok {
		return true
	}
	_, ok := c.colls[path]
	return ok
}

// ---- metadata ----

// queryableClass reports whether a class participates in the attribute
// index (file-based metadata is view-only per the paper; system
// metadata is matched live; annotations are searched separately).
func queryableClass(cl types.MetaClass) bool {
	return cl == types.MetaUser || cl == types.MetaType
}

// AddMeta appends one metadata triplet of the given class to path.
// Multiple values for one attribute are allowed ("there is no limit for
// the number of metadata associated with a SRB object").
func (c *Catalog) AddMeta(path string, class types.MetaClass, avu types.AVU) error {
	l := lendLine(Entry{Op: "addmeta", Path: types.CleanPath(path), Class: int(class)})
	l.p.avu = avu
	l.e.AVU = &l.p.avu
	return c.commitLine(l)
}

// GetMeta returns the triplets of one class on path, in insert order.
func (c *Catalog) GetMeta(path string, class types.MetaClass) ([]types.AVU, error) {
	path = types.CleanPath(path)
	c.mu.RLock()
	defer c.mu.RUnlock()
	if !c.pathExistsLocked(path) {
		return nil, types.E("getmeta", path, types.ErrNotFound)
	}
	var out []types.AVU
	for _, e := range c.meta[path] {
		if e.Class == class {
			out = append(out, e.AVU)
		}
	}
	return out, nil
}

// AllMeta returns every stored triplet on path grouped by class.
func (c *Catalog) AllMeta(path string) (map[types.MetaClass][]types.AVU, error) {
	path = types.CleanPath(path)
	c.mu.RLock()
	defer c.mu.RUnlock()
	if !c.pathExistsLocked(path) {
		return nil, types.E("getmeta", path, types.ErrNotFound)
	}
	out := make(map[types.MetaClass][]types.AVU)
	for _, e := range c.meta[path] {
		out[e.Class] = append(out[e.Class], e.AVU)
	}
	return out, nil
}

// UpdateMeta rewrites the value/units of the triplets matching (class,
// name, oldValue); oldValue "" matches every value of the attribute.
// It returns how many triplets changed.
func (c *Catalog) UpdateMeta(path string, class types.MetaClass, name, oldValue string, newAVU types.AVU) (int, error) {
	l := lendLine(Entry{Op: "updmeta", Path: types.CleanPath(path), Class: int(class)})
	l.p.avu, l.p.newAVU = types.AVU{Name: name, Value: oldValue}, newAVU
	l.e.AVU, l.e.NewAVU = &l.p.avu, &l.p.newAVU
	return c.changeMeta(l)
}

// DeleteMeta removes triplets matching (class, name, value); value ""
// removes every value of the attribute. Returns how many were removed.
func (c *Catalog) DeleteMeta(path string, class types.MetaClass, name, value string) (int, error) {
	l := lendLine(Entry{Op: "delmeta", Path: types.CleanPath(path), Class: int(class)})
	l.p.avu = types.AVU{Name: name, Value: value}
	l.e.AVU = &l.p.avu
	return c.changeMeta(l)
}

// changeMeta commits the "updmeta" or "delmeta" entry built in l and
// returns how many triplets it changed. When none matches it commits
// nothing.
func (c *Catalog) changeMeta(l *lineBuf) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.metaMatchesLocked(&l.e)
	if n == 0 && c.pathExistsLocked(l.e.Path) {
		l.free()
		return 0, nil
	}
	if err := c.commitLineLocked(l); err != nil {
		return 0, err
	}
	return n, nil
}

// metaMatchesLocked counts the triplets on e.Path that an "updmeta" or
// "delmeta" entry names (matchesMeta).
func (c *Catalog) metaMatchesLocked(e *Entry) int {
	n := 0
	for _, m := range c.meta[e.Path] {
		if matchesMeta(m, e) {
			n++
		}
	}
	return n
}

// matchesMeta reports whether m is of e's class and attribute, and of
// its value unless that is "".
func matchesMeta(m metaEntry, e *Entry) bool {
	return m.Class == types.MetaClass(e.Class) && lowerEq(m.AVU.Name, e.AVU.Name) && (e.AVU.Value == "" || m.AVU.Value == e.AVU.Value)
}

// CopyMeta copies the user and type metadata from one path to another
// (the paper's third association method: "copy metadata from other SRB
// objects or collections").
func (c *Catalog) CopyMeta(from, to string) error {
	return c.commit(Entry{Op: "copymeta", Path: types.CleanPath(from), Path2: types.CleanPath(to)})
}

// AttachFileMeta associates metaFile (an SRB object holding triplets)
// as file-based metadata for path. One file may serve many objects.
func (c *Catalog) AttachFileMeta(path, metaFile string) error {
	return c.commit(Entry{Op: "filemeta", Path: types.CleanPath(path), Path2: types.CleanPath(metaFile)})
}

// FileMeta returns the metadata-file paths attached to path.
func (c *Catalog) FileMeta(path string) []string {
	path = types.CleanPath(path)
	c.mu.RLock()
	defer c.mu.RUnlock()
	return append([]string(nil), c.fileMeta[path]...)
}

// ---- structural metadata (collections) ----

// SetStructural adds or replaces a structural attribute requirement on
// a collection.
func (c *Catalog) SetStructural(coll string, attr types.StructuralAttr) error {
	l := lendLine(Entry{Op: "structural", Path: types.CleanPath(coll)})
	l.p.attr = attr
	l.e.Attr = &l.p.attr
	return c.commitLine(l)
}

// DeleteStructural removes a structural attribute from a collection.
func (c *Catalog) DeleteStructural(coll, name string) error {
	return c.commit(Entry{Op: "delstructural", Path: types.CleanPath(coll), Name: name})
}

// Structural returns the structural attributes a new member of coll
// must honour: the collection's own plus those inherited from every
// ancestor. Nearer definitions shadow farther ones by name.
func (c *Catalog) Structural(coll string) []types.StructuralAttr {
	coll = types.CleanPath(coll)
	c.mu.RLock()
	defer c.mu.RUnlock()
	seen := make(map[string]bool)
	var out []types.StructuralAttr
	add := func(p string) {
		for _, a := range c.structural[p] {
			if !seen[a.Name] {
				seen[a.Name] = true
				out = append(out, a)
			}
		}
	}
	// coll, then each ancestor up to the root, each a prefix of coll.
	for p := coll; ; p = types.Parent(p) {
		add(p)
		if p == "/" {
			break
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CheckMandatory verifies that the provided metadata satisfies every
// mandatory structural attribute of coll, returning the missing names.
func (c *Catalog) CheckMandatory(coll string, provided []types.AVU) []string {
	var missing []string
	for _, a := range c.Structural(coll) {
		if !a.Mandatory {
			continue
		}
		ok := false
		for _, p := range provided {
			if lowerEq(p.Name, a.Name) && p.Value != "" {
				ok = true
				break
			}
		}
		if !ok && len(a.Defaults) == 1 {
			ok = true // a single default satisfies the requirement
		}
		if !ok {
			missing = append(missing, a.Name)
		}
	}
	return missing
}

// ---- annotations ----

// AddAnnotation appends commentary to a path. Timestamp is stamped when
// zero.
func (c *Catalog) AddAnnotation(path string, a types.Annotation) error {
	l := lendLine(Entry{Op: "annotate", Path: types.CleanPath(path)})
	l.p.ann = a
	l.e.Ann = &l.p.ann
	return c.commitLine(l)
}

// Annotations returns the commentary on path in insert order.
func (c *Catalog) Annotations(path string) ([]types.Annotation, error) {
	path = types.CleanPath(path)
	c.mu.RLock()
	defer c.mu.RUnlock()
	if !c.pathExistsLocked(path) {
		return nil, types.E("annotations", path, types.ErrNotFound)
	}
	return append([]types.Annotation(nil), c.annots[path]...), nil
}

// DeleteAnnotations removes annotations on path by author (""=any).
func (c *Catalog) DeleteAnnotations(path, author string) (int, error) {
	path = types.CleanPath(path)
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, a := range c.annots[path] {
		if author == "" || a.Author == author {
			n++
		}
	}
	if n == 0 && c.pathExistsLocked(path) {
		return 0, nil
	}
	if err := c.commitLineLocked(lendLine(Entry{Op: "delannotations", Path: path, Name: author})); err != nil {
		return 0, err
	}
	return n, nil
}

// ---- inverted index and per-path state management ----

// postings is the set of paths that hold one value of an attribute. A
// value held by one path, as most are, keeps that path inline; the set
// becomes a map only when a second path arrives, and stays one.
type postings struct {
	one  string
	many map[string]struct{}
}

func (s *postings) len() int {
	switch {
	case s.many != nil:
		return len(s.many)
	case s.one != "":
		return 1
	}
	return 0
}

func (s *postings) has(path string) bool {
	if s.many != nil {
		_, ok := s.many[path]
		return ok
	}
	return s.one != "" && s.one == path
}

func (s *postings) add(path string) {
	switch {
	case s.many != nil:
		s.many[path] = struct{}{}
	case s.one == "" || s.one == path:
		s.one = path
	default:
		s.many = map[string]struct{}{s.one: {}, path: {}}
		s.one = ""
	}
}

func (s *postings) remove(path string) {
	if s.many != nil {
		delete(s.many, path)
	} else if s.one == path {
		s.one = ""
	}
}

// indexAdd records path under the lower-cased attribute name so query
// matching is case-insensitive on names (values stay exact).
func (c *Catalog) indexAdd(name, value, path string) {
	name = strings.ToLower(name)
	vals := c.attrIndex[name]
	if vals == nil {
		vals = make(map[string]postings)
		c.attrIndex[name] = vals
	}
	set := vals[value]
	set.add(path)
	vals[value] = set
}

func (c *Catalog) indexRemove(name, value, path string) {
	name = strings.ToLower(name)
	vals := c.attrIndex[name]
	set, ok := vals[value]
	if !ok {
		return
	}
	set.remove(path)
	if set.len() > 0 {
		return // a map shrank in place, or another path stays inline
	}
	delete(vals, value)
	if len(vals) == 0 {
		delete(c.attrIndex, name)
	}
}

// unindexGone un-indexes path for each (name, value) that entries just
// taken off it carried — unless a queryable entry still on the path
// carries the same pair (the other class, or a duplicate AddMeta), in
// which case an equality query must go on finding the path. Callers have
// already brought c.meta[path] to its new state.
func (c *Catalog) unindexGone(gone []types.AVU, path string) {
next:
	for _, g := range gone {
		key := strings.ToLower(g.Name) // as indexAdd keys it
		for _, e := range c.meta[path] {
			if queryableClass(e.Class) && e.AVU.Value == g.Value && strings.ToLower(e.AVU.Name) == key {
				continue next
			}
		}
		c.indexRemove(g.Name, g.Value, path)
	}
}

// dropPathState removes every per-path record for a deleted path.
// Callers hold the write lock.
func (c *Catalog) dropPathState(path string) {
	for _, e := range c.meta[path] {
		if queryableClass(e.Class) {
			c.indexRemove(e.AVU.Name, e.AVU.Value, path)
		}
	}
	delete(c.meta, path)
	delete(c.acls, path)
	delete(c.annots, path)
	delete(c.fileMeta, path)
	delete(c.structural, path)
}

// rekeyPathState moves every per-path record from old to new path.
// Callers hold the write lock.
func (c *Catalog) rekeyPathState(oldPath, newPath string) {
	if entries, ok := c.meta[oldPath]; ok {
		for _, e := range entries {
			if queryableClass(e.Class) {
				c.indexRemove(e.AVU.Name, e.AVU.Value, oldPath)
				c.indexAdd(e.AVU.Name, e.AVU.Value, newPath)
			}
		}
		c.meta[newPath] = entries
		delete(c.meta, oldPath)
	}
	if l, ok := c.acls[oldPath]; ok {
		c.acls[newPath] = l
		delete(c.acls, oldPath)
	}
	if a, ok := c.annots[oldPath]; ok {
		c.annots[newPath] = a
		delete(c.annots, oldPath)
	}
	if f, ok := c.fileMeta[oldPath]; ok {
		c.fileMeta[newPath] = f
		delete(c.fileMeta, oldPath)
	}
	if s, ok := c.structural[oldPath]; ok {
		c.structural[newPath] = s
		delete(c.structural, oldPath)
	}
}

// QueryableClass reports whether a metadata class feeds the inverted
// query index (user and type metadata, per the paper's query model).
func QueryableClass(cl types.MetaClass) bool { return queryableClass(cl) }

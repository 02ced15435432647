package mcat

import (
	"sort"

	"gosrb/internal/types"
)

// Export returns the entries that recreate the state at and under root
// with its identity (IDs, replicas, timestamps, link targets): root's
// collections, shallow-first, then its objects, each one "ingest" entry
// carrying its user metadata, then each path's ACL, other metadata,
// structural attributes and annotations, then file-metadata
// attachments, which name other objects. For "/" it is the whole
// catalog in the order Apply needs: users, groups and their members,
// and resources — physical before logical, with their online state and
// ACLs — come first, and the repair queue last. Root itself is a
// collection or an object; a path that is neither exports nothing. An
// ingest entry's object shares its row's slices, read-only, as
// GetObject does, and a resource entry its row's members, as
// GetResource does.
func (c *Catalog) Export(root string) []Entry {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.exportLocked(types.CleanPath(root))
}

// exportLocked is Export of a cleaned root; callers hold the lock.
func (c *Catalog) exportLocked(root string) []Entry {
	whole := root == "/"
	var out []Entry
	if whole {
		for _, name := range sortedKeys(c.users) {
			u := *c.users[name]
			out = append(out, Entry{Op: "adduser", User: &u})
		}
		for _, name := range sortedKeys(c.groups) {
			out = append(out, Entry{Op: "addgroup", Group: name})
			for _, m := range c.groups[name].Members {
				out = append(out, Entry{Op: "addtogroup", Group: name, Member: m})
			}
		}
		names := sortedKeys(c.resources)
		sort.SliceStable(names, func(i, j int) bool { // physical (0) before logical
			return c.resources[names[i]].Kind < c.resources[names[j]].Kind
		})
		for _, name := range names {
			r := *c.resources[name]
			out = append(out, Entry{Op: "addresource", Resource: &r})
			if !r.Online { // AddResource registers a resource online
				out = append(out, Entry{Op: "setonline", Name: name})
			}
			for _, g := range c.acls["resource:"+name] {
				out = append(out, Entry{Op: "setresourceacl", Name: name, Grantee: g.Grantee, Level: int(g.Level)})
			}
		}
	}

	// A parent sorts before its children, so sorted is shallow-first.
	var colls, objs []string
	for p := range c.colls {
		if p != "/" && types.WithinOrEqual(root, p) {
			colls = append(colls, p)
		}
	}
	for p := range c.objects {
		if types.WithinOrEqual(root, p) {
			objs = append(objs, p)
		}
	}
	sort.Strings(colls)
	sort.Strings(objs)
	for _, p := range colls {
		col := *c.colls[p]
		out = append(out, Entry{Op: "mkcoll", Coll: &col})
	}
	for _, p := range objs {
		var meta []types.AVU
		for _, m := range c.meta[p][:userLead(c.meta[p])] {
			meta = append(meta, m.AVU)
		}
		row := c.objects[p]
		c.canary.check(p, row)
		o := *row // its slices shared, read-only
		out = append(out, Entry{Op: "ingest", Object: &o, Meta: meta})
	}

	paths := append(colls, objs...)
	if whole {
		paths = append([]string{"/"}, paths...)
	}
	for _, p := range paths {
		for _, g := range c.acls[p] {
			out = append(out, Entry{Op: "setacl", Path: p, Grantee: g.Grantee, Level: int(g.Level)})
		}
		meta := c.meta[p]
		if _, ok := c.objects[p]; ok {
			meta = meta[userLead(meta):]
		}
		for _, m := range meta {
			avu := m.AVU
			out = append(out, Entry{Op: "addmeta", Path: p, Class: int(m.Class), AVU: &avu})
		}
		for _, a := range c.structural[p] {
			attr := a
			attr.Defaults = append([]string(nil), a.Defaults...)
			out = append(out, Entry{Op: "structural", Path: p, Attr: &attr})
		}
		for _, a := range c.annots[p] {
			ann := a
			out = append(out, Entry{Op: "annotate", Path: p, Ann: &ann})
		}
	}
	for _, p := range paths {
		for _, f := range c.fileMeta[p] {
			// A catalog written before DeleteObject dropped the attachments
			// naming it can still hold one whose file is gone.
			if _, ok := c.objects[f]; ok {
				out = append(out, Entry{Op: "filemeta", Path: p, Path2: f})
			}
		}
	}

	if whole {
		for _, key := range sortedKeys(c.repairs) {
			t := *c.repairs[key]
			out = append(out, Entry{Op: "repairenq", Repair: &t})
		}
	}
	return out
}

// userLead is how many of an object's triplets, from the first, are user
// metadata: the ones its "ingest" entry carries. The rest stay "addmeta"
// entries, so the applied order across classes, which is the order a
// query selects values in, is the stored one.
func userLead(meta []metaEntry) int {
	n := 0
	for n < len(meta) && meta[n].Class == types.MetaUser {
		n++
	}
	return n
}

// Rebase returns the entry moved from one place in the namespace to
// another: every path it names that lies at or under from — the path
// it is about, a second path, a collection's path and link target, an
// object's location, link target and container — lies at the same
// place under to. Other paths are left as they are.
func (e Entry) Rebase(from, to string) Entry {
	e.Path, e.Path2 = rebaseIn(from, to, e.Path), rebaseIn(from, to, e.Path2)
	if e.Coll != nil {
		col := *e.Coll
		col.Path, col.LinkTarget = rebaseIn(from, to, col.Path), rebaseIn(from, to, col.LinkTarget)
		e.Coll = &col
	}
	if e.Object != nil {
		o := *e.Object // only paths change; the slices stay shared
		p := rebaseIn(from, to, o.Path())
		o.Collection, o.Name = types.Parent(p), types.Base(p)
		o.LinkTarget, o.Container = rebaseIn(from, to, o.LinkTarget), rebaseIn(from, to, o.Container)
		e.Object = &o
	}
	return e
}

// Target is the path, or for accounts and resources the name, that a
// live write of the entry names.
func (e Entry) Target() string {
	switch {
	case e.Coll != nil:
		return e.Coll.Path
	case e.Object != nil:
		return e.Object.Path()
	case e.Path != "":
		return e.Path
	case e.User != nil:
		return e.User.Name
	case e.Resource != nil:
		return e.Resource.Name
	case e.Group != "":
		return e.Group
	}
	return e.Name
}

// rebaseIn moves p from under from to under to; a path elsewhere, or
// none, is returned as it is.
func rebaseIn(from, to, p string) string {
	if p == "" || !types.WithinOrEqual(from, p) {
		return p
	}
	return types.Rebase(from, to, p)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

package mcat_test

import (
	"fmt"
	"time"

	"gosrb/internal/acl"
	"gosrb/internal/mcat"
	"gosrb/internal/mcat/shard"
	"gosrb/internal/types"
)

// dump renders what a catalog answers through its read methods, one
// line per fact, so two catalogs — a monolith and a router, a live
// catalog and its replayed or resharded copy — compare by value. Object
// IDs print through id, because a router allocates them from another
// sequence than a monolith. The admin account and the root collection
// are made by New with the wall clock, so their creation times are left
// out.
func dump(c shard.Catalog, id func(types.ObjectID) string) []string {
	var out []string
	add := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }

	users := c.Users()
	for _, u := range users {
		if u.Name == "admin" {
			u.CreatedAt = time.Time{}
		}
		add("user %+v groups=%v admin=%v", u, c.GroupsOf(u.Name), c.IsAdmin(u.Name))
	}
	for _, g := range c.Groups() {
		add("group %+v", g)
	}
	levels := make([]acl.Level, len(users))
	for _, r := range c.Resources() {
		phys, err := c.ResolvePhysical(r.Name)
		for i, u := range users {
			levels[i] = c.ResourceLevel(r.Name, u.Name)
		}
		add("resource %+v physical=%d %v levels=%v", r, len(phys), err, levels)
	}

	pathState := func(p string) {
		list, aclErr := c.GetACL(p)
		meta, metaErr := c.AllMeta(p)
		notes, notesErr := c.Annotations(p)
		for i, u := range users {
			levels[i] = c.EffectiveLevel(p, u.Name)
		}
		add("  acl=%v %v meta=%v %v annotations=%+v %v filemeta=%v levels=%v",
			list, aclErr, meta, metaErr, notes, notesErr, c.FileMeta(p), levels)
	}
	for _, p := range append([]string{"/"}, c.SubColls("/")...) {
		col, err := c.GetColl(p)
		if p == "/" {
			col.CreatedAt = time.Time{}
		}
		add("coll %+v %v structural=%+v", col, err, c.Structural(p))
		ls, err := c.ListColl(p)
		add("  members %+v %v", ls, err)
		pathState(p)
	}
	for _, p := range c.SubtreeObjects("/") {
		o, err := c.GetObject(p)
		byID, idErr := c.GetObjectByID(o.ID)
		oid := id(o.ID)
		o.ID = 0
		add("object %s %+v %v by-id=%s %v", oid, o, err, byID.Path(), idErr)
		pathState(p)
	}

	for _, t := range c.PendingRepairs() {
		add("repair %+v", t)
	}
	n, oldest := c.RepairBacklog()
	add("backlog %d %v", n, oldest)
	add("stats %+v", c.Stats())

	// Queries: every queryable attribute, first matched by LIKE with its
	// values selected, then by equality on each value found — the second
	// goes through the inverted index.
	attrs := c.QueryAttrNames("/")
	add("attrs %v", attrs)
	for _, a := range attrs {
		q := mcat.Query{Scope: "/", Conds: []mcat.Condition{{Attr: a, Op: "like", Value: "%"}}, Select: []string{a}}
		hits, err := c.RunQuery(q)
		add("query %s like %%: %v %v", a, byName(q, hits), err)
		seen := map[string]bool{}
		for _, h := range hits {
			for _, v := range h.Values[0] {
				if seen[v] {
					continue
				}
				seen[v] = true
				q := mcat.Query{Scope: "/", Conds: []mcat.Condition{{Attr: a, Op: "=", Value: v}}}
				eq, err := c.RunQuery(q)
				add("query %s = %q: %v %v", a, v, byName(q, eq), err)
			}
		}
	}
	return out
}

// namedHit is a hit as dumps print it: its values keyed by the
// attribute selected, the form the golden dumps were written in.
type namedHit struct {
	Path   string
	Values map[string][]string
}

// byName keys each hit's columns by the attribute q selected for them.
func byName(q mcat.Query, hits []mcat.Hit) []namedHit {
	if hits == nil {
		return nil
	}
	out := make([]namedHit, len(hits))
	for i, h := range hits {
		out[i].Path = h.Path
		if h.Values != nil {
			out[i].Values = make(map[string][]string, len(q.Select))
			for k, a := range q.Select {
				out[i].Values[a] = h.Values[k]
			}
		}
	}
	return out
}

// diffDump reports the first line where two dumps differ, or "".
func diffDump(got, want []string) string {
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i, g, w)
		}
	}
	return ""
}

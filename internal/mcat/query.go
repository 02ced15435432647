package mcat

import (
	"slices"
	"sort"
	"strconv"
	"strings"

	"gosrb/internal/types"
)

// Condition is one conjunct of a metadata query: attribute name,
// comparison operator and comparison value. The operator set matches
// the MySRB query interface: "=,>,<,<=,>=,<>,like, not like" (paper §6).
type Condition struct {
	Attr  string
	Op    string
	Value string
}

// Query describes a conjunctive metadata query. Scope restricts hits to
// one collection subtree ("one can query across collections by being
// above the collections"). Select names attributes whose values are
// returned with each hit, mirroring the interface's fourth column
// check-box. Attributes prefixed "sys:" address system metadata;
// the attribute "annotation" searches commentary text.
type Query struct {
	Scope  string
	Conds  []Condition
	Select []string
	Limit  int // 0 = unlimited
}

// Hit is one query result: the object's path and, column by column,
// the values of the attributes the query selected. Values[i] holds the
// values of Query.Select[i], nil when the object has none; an attribute
// selected twice gets two columns. Values is nil when nothing was
// selected.
type Hit struct {
	Path   string
	Values [][]string
}

// QueryPartial runs a query and reports which partitions, if any,
// could not answer. A monolithic catalog always answers completely, so
// the partial list is nil; the shard router overrides this with real
// per-shard outcomes. The method exists so every Catalog implementation
// shares one query contract.
func (c *Catalog) QueryPartial(q Query) ([]Hit, []string, error) {
	hits, err := c.RunQuery(q)
	return hits, nil, err
}

// QueryInto is RunQueryInto under the same contract: a monolithic
// catalog reports no partial shards.
func (c *Catalog) QueryInto(a *Answer, q Query) ([]string, error) {
	return nil, c.RunQueryInto(a, q)
}

// SysAttrs lists the queryable system-metadata pseudo-attributes.
func SysAttrs() []string {
	return []string{
		"sys:name", "sys:collection", "sys:owner", "sys:size",
		"sys:datatype", "sys:kind", "sys:container", "sys:replicas",
	}
}

// appendAttrValues appends an object's values for an attribute to dst:
// system pseudo-attributes, annotation text, or user/type metadata. It
// fills the Select columns of a hit; conditions are tested in place by
// cond.matches and never come here. Callers hold at least the read lock.
func (c *Catalog) appendAttrValues(dst []string, path string, o *types.DataObject, attr string) []string {
	switch sourceOf(attr) {
	case srcMeta:
		entries := c.meta[path]
		for i := range entries {
			if e := &entries[i]; queryableClass(e.Class) && lowerEq(e.AVU.Name, attr) {
				dst = append(dst, e.AVU.Value)
			}
		}
	case srcAnnotation:
		notes := c.annots[path]
		for i := range notes {
			dst = append(dst, notes[i].Text)
		}
	case srcName:
		dst = append(dst, o.Name)
	case srcCollection:
		dst = append(dst, o.Collection)
	case srcOwner:
		dst = append(dst, o.Owner)
	case srcSize:
		dst = append(dst, strconv.FormatInt(o.Size, 10))
	case srcDataType:
		dst = append(dst, o.DataType)
	case srcKind:
		dst = append(dst, o.Kind.String())
	case srcContainer:
		if o.Container != "" {
			dst = append(dst, o.Container)
		}
	case srcReplicas:
		dst = append(dst, strconv.Itoa(len(o.Replicas)))
	}
	return dst
}

// op is a comparison operator of the MySRB query builder, decided once
// per query.
type op uint8

const (
	opEq op = iota
	opNe
	opGt
	opGe
	opLt
	opLe
	opLike
	opNotLike
)

func parseOp(s string) (op, bool) {
	switch strings.ToLower(s) {
	case "=":
		return opEq, true
	case "<>":
		return opNe, true
	case ">":
		return opGt, true
	case ">=":
		return opGe, true
	case "<":
		return opLt, true
	case "<=":
		return opLe, true
	case "like":
		return opLike, true
	case "not like":
		return opNotLike, true
	}
	return 0, false
}

// source says where a condition's attribute lives, decided once per
// query: user/type metadata, annotation text, or one field of the
// object. srcNone is a "sys:" name the catalog does not know; it has no
// values, so no object satisfies a condition on it.
type source uint8

const (
	srcMeta source = iota
	srcAnnotation
	srcName
	srcCollection
	srcOwner
	srcSize
	srcDataType
	srcKind
	srcContainer
	srcReplicas
	srcNone
)

func sourceOf(attr string) source {
	switch attr {
	case "sys:name":
		return srcName
	case "sys:collection":
		return srcCollection
	case "sys:owner":
		return srcOwner
	case "sys:size":
		return srcSize
	case "sys:datatype":
		return srcDataType
	case "sys:kind":
		return srcKind
	case "sys:container":
		return srcContainer
	case "sys:replicas":
		return srcReplicas
	}
	switch {
	case strings.HasPrefix(attr, "sys:"):
		return srcNone
	case lowerEq(attr, "annotation"):
		return srcAnnotation
	}
	return srcMeta
}

// cond is a compiled Condition: everything that does not depend on the
// candidate is worked out before the first one is looked at.
type cond struct {
	src  source
	attr string // srcMeta: attribute name, matched case-insensitively
	op   op
	want string // the comparand; a LIKE pattern is lower-cased here, once
	// Ordering operators compare numerically when both sides parse as
	// numbers; the comparand is parsed here, once.
	wantNum   float64
	wantIsNum bool
}

func compile(cn Condition) (cond, bool) {
	o, ok := parseOp(cn.Op)
	if !ok {
		return cond{}, false
	}
	cc := cond{src: sourceOf(cn.Attr), attr: cn.Attr, op: o, want: cn.Value}
	switch o {
	case opGt, opGe, opLt, opLe:
		f, err := strconv.ParseFloat(strings.TrimSpace(cn.Value), 64)
		cc.wantNum, cc.wantIsNum = f, err == nil
	case opLike, opNotLike:
		cc.want = strings.ToLower(cn.Value)
	}
	return cc, true
}

// compare orders a value against the comparand: numerically when both
// parse as numbers, lexicographically otherwise.
func (cc *cond) compare(v string) int {
	if cc.wantIsNum {
		if f, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err == nil {
			switch {
			case f < cc.wantNum:
				return -1
			case f > cc.wantNum:
				return 1
			default:
				return 0
			}
		}
	}
	return strings.Compare(v, cc.want)
}

// test reports whether one value satisfies the condition.
func (cc *cond) test(v string) bool {
	switch cc.op {
	case opEq:
		return v == cc.want
	case opNe:
		return v != cc.want
	case opGt:
		return cc.compare(v) > 0
	case opGe:
		return cc.compare(v) >= 0
	case opLt:
		return cc.compare(v) < 0
	case opLe:
		return cc.compare(v) <= 0
	case opLike:
		return types.LikeFolded(v, cc.want)
	default: // opNotLike
		return !types.LikeFolded(v, cc.want)
	}
}

// matches reports whether any value the object has for the condition's
// attribute satisfies it (attributes are multi-valued), reading the
// values where they are stored. Callers hold at least the read lock.
func (cc *cond) matches(c *Catalog, path string, o *types.DataObject) bool {
	switch cc.src {
	case srcMeta:
		entries := c.meta[path]
		for i := range entries {
			e := &entries[i]
			if queryableClass(e.Class) && lowerEq(e.AVU.Name, cc.attr) && cc.test(e.AVU.Value) {
				return true
			}
		}
		return false
	case srcAnnotation:
		notes := c.annots[path]
		for i := range notes {
			if cc.test(notes[i].Text) {
				return true
			}
		}
		return false
	case srcName:
		return cc.test(o.Name)
	case srcCollection:
		return cc.test(o.Collection)
	case srcOwner:
		return cc.test(o.Owner)
	case srcSize:
		return cc.testInt(o.Size)
	case srcDataType:
		return cc.test(o.DataType)
	case srcKind:
		return cc.test(o.Kind.String())
	case srcContainer:
		return o.Container != "" && cc.test(o.Container)
	case srcReplicas:
		return cc.testInt(int64(len(o.Replicas)))
	default: // srcNone
		return false
	}
}

// testInt tests a numeric field through its decimal form, formatted
// into a buffer that does not outlive the call.
func (cc *cond) testInt(n int64) bool {
	var buf [20]byte
	return cc.test(string(strconv.AppendInt(buf[:0], n, 10)))
}

// inScope reports whether path lies strictly inside the cleaned scope.
func inScope(scope, path string) bool {
	if scope == "/" {
		return true
	}
	return len(path) > len(scope) && path[len(scope)] == '/' && path[:len(scope)] == scope
}

// RunQuery executes a conjunctive query and returns hits sorted by
// path, nil when nothing matches. It is RunQueryInto on a fresh Answer.
func (c *Catalog) RunQuery(q Query) ([]Hit, error) {
	var a Answer
	err := c.RunQueryInto(&a, q)
	return a.Hits, err
}

// Answer is a query's result in buffers its owner keeps from one query
// to the next: the hits, the column headers their Values are cut from
// (hit i's are Cols[i*len(Select):]) and the values the columns are cut
// from. RunQueryInto refills it, allocating only where an answer
// outgrows the capacity the buffers already have; a buffer may be
// reused once nothing reads the previous answer.
type Answer struct {
	Hits []Hit
	Cols [][]string
	Vals []string
}

// RunQueryInto executes a conjunctive query into a, replacing what it
// held, with hits sorted by path. Equality conditions on user/type
// attributes narrow through the inverted index, keeping latency flat as
// the catalog grows (E2).
//
// The query is compiled once, the candidates (the smallest posting set
// of the index, or every object in the scope) are walked where they are
// stored and each condition is tested against the object's own records;
// only the paths that match are collected (on the stack, up to
// maxStackHits), sorted and cut at Limit, and only those get their
// Select values. An answer lives in three buffers whatever its size, and into fresh ones
// it costs three allocations: the hits, the column headers and the
// values, which grow only when a hit holds more than one value per
// column. Only a numeric system attribute (sys:size, sys:replicas)
// formats a string per hit.
func (c *Catalog) RunQueryInto(a *Answer, q Query) error {
	a.Hits, a.Cols, a.Vals = a.Hits[:0], a.Cols[:0], a.Vals[:0]
	scope := types.CleanPath(q.Scope)
	var buf [4]cond
	conds := buf[:0]
	for _, cn := range q.Conds {
		cc, ok := compile(cn)
		if !ok {
			return types.E("query", cn.Op, types.ErrInvalid)
		}
		conds = append(conds, cc)
	}
	c.mu.RLock()
	defer c.mu.RUnlock()

	// Choose the smallest equality posting set, if any. A value or an
	// attribute the index does not hold is held by no object.
	var candidates postings
	narrowed := false
	for i := range conds {
		cc := &conds[i]
		if cc.op != opEq || cc.src != srcMeta {
			continue
		}
		set, ok := c.attrIndex[strings.ToLower(cc.attr)][cc.want]
		if !ok {
			return nil
		}
		if !narrowed || set.len() < candidates.len() {
			candidates, narrowed = set, true
		}
	}

	var pathBuf [maxStackHits]string
	paths := pathBuf[:0]
	// A posting may be a collection's path: those are not hits.
	hit := func(p string) bool {
		o, ok := c.objects[p]
		return ok && inScope(scope, p) && matchesAll(conds, c, p, o)
	}
	switch {
	case !narrowed && scope == "/":
		for p, o := range c.objects {
			if matchesAll(conds, c, p, o) {
				paths = append(paths, p)
			}
		}
	case !narrowed:
		c.eachInScope(scope, func(p string, o *types.DataObject) {
			if matchesAll(conds, c, p, o) {
				paths = append(paths, p)
			}
		})
	case candidates.many == nil:
		if hit(candidates.one) {
			paths = append(paths, candidates.one)
		}
	default:
		for p := range candidates.many {
			if hit(p) {
				paths = append(paths, p)
			}
		}
	}
	if len(paths) == 0 {
		return nil
	}
	slices.Sort(paths)
	if q.Limit > 0 && len(paths) > q.Limit {
		paths = paths[:q.Limit]
	}
	hits := slices.Grow(a.Hits, len(paths))[:len(paths)]
	for i, p := range paths {
		hits[i] = Hit{Path: p}
	}
	a.Hits = hits
	if w := len(q.Select); w > 0 {
		n := len(hits) * w
		cols := slices.Grow(a.Cols, n)[:n]
		clear(cols)
		vals := slices.Grow(a.Vals, n)
		for i := range hits {
			h := &hits[i]
			o := c.objects[h.Path]
			h.Values = cols[i*w : (i+1)*w : (i+1)*w]
			for k, attr := range q.Select {
				start := len(vals)
				// A column keeps the array it was cut from when a later
				// append moves vals.
				if vals = c.appendAttrValues(vals, h.Path, o, attr); len(vals) > start {
					h.Values[k] = vals[start:len(vals):len(vals)]
				}
			}
		}
		a.Cols, a.Vals = cols, vals
	}
	return nil
}

// eachInScope calls fn with every object strictly inside the
// collection coll, walking the child indexes down from it, so a scoped
// query examines its scope's objects, not the catalog's. A link
// collection's target is not followed: inScope matches an object by its
// own path, which lies under the target. A coll that names an object,
// or nothing, has no members.
func (c *Catalog) eachInScope(coll string, fn func(p string, o *types.DataObject)) {
	for _, p := range c.childObjs[coll] {
		fn(p, c.objects[p])
	}
	for _, sub := range c.childColls[coll] {
		c.eachInScope(sub, fn)
	}
}

// maxStackHits is how many matching paths RunQuery collects without a
// heap allocation.
const maxStackHits = 128

func matchesAll(conds []cond, c *Catalog, path string, o *types.DataObject) bool {
	for i := range conds {
		if !conds[i].matches(c, path, o) {
			return false
		}
	}
	return true
}

// QueryAttrNames returns the attribute names queryable within scope:
// every user/type attribute on objects in the subtree plus the
// structural attributes of its collections, for the MySRB drop-down
// menu ("all the metadata names that are queryable in that collection
// and every collection in the hierarchy under the collection").
func (c *Catalog) QueryAttrNames(scope string) []string {
	scope = types.CleanPath(scope)
	c.mu.RLock()
	defer c.mu.RUnlock()
	seen := make(map[string]bool)
	for p, entries := range c.meta {
		if scope != "/" && !types.WithinOrEqual(scope, p) {
			continue
		}
		for _, e := range entries {
			if queryableClass(e.Class) {
				seen[strings.ToLower(e.AVU.Name)] = true
			}
		}
	}
	for p, attrs := range c.structural {
		if scope != "/" && !types.WithinOrEqual(scope, p) {
			continue
		}
		for _, a := range attrs {
			seen[strings.ToLower(a.Name)] = true
		}
	}
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

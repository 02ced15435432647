package mcat

import (
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

// Hit is one query result: the object's path plus requested values.
type Hit struct {
	Path   string
	Values map[string][]string
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

// SysAttrs lists the queryable system-metadata pseudo-attributes.
func SysAttrs() []string {
	return []string{
		"sys:name", "sys:collection", "sys:owner", "sys:size",
		"sys:datatype", "sys:kind", "sys:container", "sys:replicas",
	}
}

// sysValues returns the values of a system attribute for an object.
func sysValues(o *types.DataObject, attr string) []string {
	switch attr {
	case "sys:name":
		return []string{o.Name}
	case "sys:collection":
		return []string{o.Collection}
	case "sys:owner":
		return []string{o.Owner}
	case "sys:size":
		return []string{strconv.FormatInt(o.Size, 10)}
	case "sys:datatype":
		return []string{o.DataType}
	case "sys:kind":
		return []string{o.Kind.String()}
	case "sys:container":
		if o.Container == "" {
			return nil
		}
		return []string{o.Container}
	case "sys:replicas":
		return []string{strconv.Itoa(len(o.Replicas))}
	default:
		return nil
	}
}

// attrValuesLocked gathers an object's values for an attribute: system
// pseudo-attributes, annotation text, or user/type metadata. It builds
// the Select columns of a hit; conditions are tested in place by
// cond.matches and never come here. Callers hold at least the read lock.
func (c *Catalog) attrValuesLocked(path string, o *types.DataObject, attr string) []string {
	if strings.HasPrefix(attr, "sys:") {
		return sysValues(o, attr)
	}
	if lowerEq(attr, "annotation") {
		var out []string
		for _, a := range c.annots[path] {
			out = append(out, a.Text)
		}
		return out
	}
	var out []string
	for _, e := range c.meta[path] {
		if queryableClass(e.Class) && lowerEq(e.AVU.Name, attr) {
			out = append(out, e.AVU.Value)
		}
	}
	return out
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
// path. Equality conditions on user/type attributes narrow through the
// inverted index, keeping latency flat as the catalog grows (E2).
//
// The query is compiled once, the candidates (the smallest posting set
// of the index, or every object) are walked where they are stored and
// each condition is tested against the object's own records; only the
// paths that match are collected, sorted and cut at Limit, and only
// those get their Select values built. What a query allocates grows
// with its hits, not with its candidates.
func (c *Catalog) RunQuery(q Query) ([]Hit, error) {
	scope := types.CleanPath(q.Scope)
	var buf [4]cond
	conds := buf[:0]
	for _, cn := range q.Conds {
		cc, ok := compile(cn)
		if !ok {
			return nil, types.E("query", cn.Op, types.ErrInvalid)
		}
		conds = append(conds, cc)
	}
	c.mu.RLock()
	defer c.mu.RUnlock()

	// Choose the smallest equality posting set, if any. A value or an
	// attribute the index does not hold is held by no object.
	var candidates map[string]bool
	for i := range conds {
		cc := &conds[i]
		if cc.op != opEq || cc.src != srcMeta {
			continue
		}
		set := c.attrIndex[strings.ToLower(cc.attr)][cc.want]
		if len(set) == 0 {
			return nil, nil
		}
		if candidates == nil || len(set) < len(candidates) {
			candidates = set
		}
	}

	var paths []string
	if candidates != nil {
		for p := range candidates {
			// A posting may be a collection's path: those are not hits.
			if o, ok := c.objects[p]; ok && inScope(scope, p) && matchesAll(conds, c, p, o) {
				paths = append(paths, p)
			}
		}
	} else {
		for p, o := range c.objects {
			if inScope(scope, p) && matchesAll(conds, c, p, o) {
				paths = append(paths, p)
			}
		}
	}
	if len(paths) == 0 {
		return nil, nil
	}
	sort.Strings(paths)
	if q.Limit > 0 && len(paths) > q.Limit {
		paths = paths[:q.Limit]
	}
	hits := make([]Hit, len(paths))
	for i, p := range paths {
		hits[i].Path = p
		if len(q.Select) > 0 {
			o := c.objects[p]
			vals := make(map[string][]string, len(q.Select))
			for _, a := range q.Select {
				vals[a] = c.attrValuesLocked(p, o, a)
			}
			hits[i].Values = vals
		}
	}
	return hits, nil
}

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

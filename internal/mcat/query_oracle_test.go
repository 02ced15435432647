package mcat

import (
	"sort"
	"strconv"
	"strings"

	"gosrb/internal/types"
)

// The reference evaluator: the materialising RunQuery and the recursive
// LIKE that the compiled evaluator in query.go replaced, kept word for
// word so the differential test and FuzzLikeMatch have something
// independent to compare against. It copies and sorts every candidate
// key and builds a value slice per (candidate, condition); it is slow
// and allocation-heavy on purpose and must not be "improved".

var oracleValidOps = map[string]bool{
	"=": true, "<>": true, ">": true, ">=": true, "<": true, "<=": true,
	"like": true, "not like": true,
}

func oracleCompareVals(a, b string) int {
	af, aerr := strconv.ParseFloat(strings.TrimSpace(a), 64)
	bf, berr := strconv.ParseFloat(strings.TrimSpace(b), 64)
	if aerr == nil && berr == nil {
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	return strings.Compare(a, b)
}

// OracleLikeMatch is the recursive LIKE: exponential in the number of %
// groups, so callers keep its inputs short.
func OracleLikeMatch(s, pattern string) bool {
	return oracleLikeRec(strings.ToLower(s), strings.ToLower(pattern))
}

func oracleLikeRec(s, p string) bool {
	for len(p) > 0 {
		switch p[0] {
		case '%':
			p = strings.TrimLeft(p, "%")
			if p == "" {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if oracleLikeRec(s[i:], p) {
					return true
				}
			}
			return false
		case '_':
			if s == "" {
				return false
			}
			s, p = s[1:], p[1:]
		default:
			if s == "" || s[0] != p[0] {
				return false
			}
			s, p = s[1:], p[1:]
		}
	}
	return s == ""
}

func oracleCondSatisfied(values []string, op, want string) bool {
	for _, v := range values {
		switch op {
		case "=":
			if v == want {
				return true
			}
		case "<>":
			if v != want {
				return true
			}
		case ">":
			if oracleCompareVals(v, want) > 0 {
				return true
			}
		case ">=":
			if oracleCompareVals(v, want) >= 0 {
				return true
			}
		case "<":
			if oracleCompareVals(v, want) < 0 {
				return true
			}
		case "<=":
			if oracleCompareVals(v, want) <= 0 {
				return true
			}
		case "like":
			if OracleLikeMatch(v, want) {
				return true
			}
		case "not like":
			if !OracleLikeMatch(v, want) {
				return true
			}
		}
	}
	return false
}

// OracleRunQuery is the parent commit's RunQuery.
func (c *Catalog) OracleRunQuery(q Query) ([]Hit, error) {
	scope := types.CleanPath(q.Scope)
	for _, cond := range q.Conds {
		if !oracleValidOps[strings.ToLower(cond.Op)] {
			return nil, types.E("query", cond.Op, types.ErrInvalid)
		}
	}
	c.mu.RLock()
	defer c.mu.RUnlock()

	var candidates map[string]bool
	for _, cond := range q.Conds {
		if cond.Op != "=" || strings.HasPrefix(cond.Attr, "sys:") || lowerEq(cond.Attr, "annotation") {
			continue
		}
		vals := c.attrIndex[strings.ToLower(cond.Attr)]
		if vals == nil {
			return nil, nil
		}
		set := vals[cond.Value]
		if candidates == nil || len(set) < len(candidates) {
			candidates = set
		}
	}

	var paths []string
	if candidates != nil {
		for p := range candidates {
			paths = append(paths, p)
		}
	} else {
		for p := range c.objects {
			paths = append(paths, p)
		}
	}
	sort.Strings(paths)

	var hits []Hit
	for _, p := range paths {
		if scope != "/" && !types.Within(scope, p) {
			continue
		}
		o, ok := c.objects[p]
		if !ok {
			continue
		}
		match := true
		for _, cond := range q.Conds {
			vals := c.attrValuesLocked(p, o, cond.Attr)
			if !oracleCondSatisfied(vals, strings.ToLower(cond.Op), cond.Value) {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		h := Hit{Path: p}
		if len(q.Select) > 0 {
			h.Values = make(map[string][]string, len(q.Select))
			for _, a := range q.Select {
				h.Values[a] = c.attrValuesLocked(p, o, a)
			}
		}
		hits = append(hits, h)
		if q.Limit > 0 && len(hits) >= q.Limit {
			break
		}
	}
	return hits, nil
}

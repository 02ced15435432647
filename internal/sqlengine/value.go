// Package sqlengine implements a small relational engine: CREATE
// TABLE / INSERT / DELETE plus a SELECT executor with joins, WHERE
// (AND/OR/NOT, comparison, LIKE, IN, IS NULL), GROUP BY with the COUNT
// / SUM / AVG / MIN / MAX aggregates, ORDER BY, LIMIT and UNION.
//
// It stands in for the Oracle / DB2 / Sybase resources of the paper:
// the dbfs storage driver keeps LOBs in its tables, and registered SQL
// objects (paper §5, registration kind 3) execute their SELECT text
// here at retrieval time.
package sqlengine

import (
	"fmt"
	"strconv"
	"strings"

	"gosrb/internal/types"
)

// ValueKind discriminates the scalar types the engine stores.
type ValueKind int

const (
	// KindNull is the SQL NULL.
	KindNull ValueKind = iota
	// KindNumber is a 64-bit float (covers the integer range we need).
	KindNumber
	// KindString is an uninterpreted byte string.
	KindString
)

// Value is one scalar cell.
type Value struct {
	Kind ValueKind
	Num  float64
	Str  string
}

// Null returns the NULL value.
func Null() Value { return Value{Kind: KindNull} }

// Number wraps a float.
func Number(f float64) Value { return Value{Kind: KindNumber, Num: f} }

// Int wraps an integer.
func Int(i int64) Value { return Value{Kind: KindNumber, Num: float64(i)} }

// String wraps a string.
func String(s string) Value { return Value{Kind: KindString, Str: s} }

// Bool encodes a boolean as 1/0, matching classic SQL dialects.
func Bool(b bool) Value {
	if b {
		return Number(1)
	}
	return Number(0)
}

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// Truth reports whether v counts as true in a WHERE clause.
func (v Value) Truth() bool {
	switch v.Kind {
	case KindNumber:
		return v.Num != 0
	case KindString:
		return v.Str != ""
	default:
		return false
	}
}

// Float coerces v to a number; strings parse leniently to 0 on failure.
func (v Value) Float() float64 {
	switch v.Kind {
	case KindNumber:
		return v.Num
	case KindString:
		f, _ := strconv.ParseFloat(strings.TrimSpace(v.Str), 64)
		return f
	default:
		return 0
	}
}

// Text renders v for display and comparison against strings.
func (v Value) Text() string {
	switch v.Kind {
	case KindNumber:
		if v.Num == float64(int64(v.Num)) {
			return strconv.FormatInt(int64(v.Num), 10)
		}
		return strconv.FormatFloat(v.Num, 'g', -1, 64)
	case KindString:
		return v.Str
	default:
		return ""
	}
}

// String implements fmt.Stringer.
func (v Value) String() string {
	if v.IsNull() {
		return "NULL"
	}
	return v.Text()
}

// Compare orders two values: NULL sorts lowest; two numbers compare
// numerically; otherwise a numeric-looking pair compares numerically
// and everything else compares as strings.
func Compare(a, b Value) int {
	switch {
	case a.IsNull() && b.IsNull():
		return 0
	case a.IsNull():
		return -1
	case b.IsNull():
		return 1
	}
	if a.Kind == KindNumber && b.Kind == KindNumber {
		return cmpFloat(a.Num, b.Num)
	}
	if a.Kind == KindNumber || b.Kind == KindNumber {
		// Mixed: compare numerically when the string side parses.
		if af, bf, ok := bothFloats(a, b); ok {
			return cmpFloat(af, bf)
		}
	}
	return strings.Compare(a.Text(), b.Text())
}

func bothFloats(a, b Value) (float64, float64, bool) {
	af, aok := tryFloat(a)
	bf, bok := tryFloat(b)
	return af, bf, aok && bok
}

func tryFloat(v Value) (float64, bool) {
	if v.Kind == KindNumber {
		return v.Num, true
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(v.Str), 64)
	return f, err == nil
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// Equal reports SQL equality (NULL never equals anything).
func Equal(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	return Compare(a, b) == 0
}

// Like evaluates the SQL LIKE operator: % matches any run, _ any one
// character. Matching is case-insensitive, following the loose behaviour
// of the catalogs SRB targeted.
func Like(s, pattern string) bool {
	return types.LikeFolded(s, strings.ToLower(pattern))
}

// Row is one tuple.
type Row []Value

// Result is the outcome of a SELECT.
type Result struct {
	Columns []string
	Rows    []Row
}

// Format renders the result as aligned text, for the CLI.
func (r *Result) Format() string {
	var b strings.Builder
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			cells[ri][ci] = v.String()
			if ci < len(widths) && len(cells[ri][ci]) > widths[ci] {
				widths[ci] = len(cells[ri][ci])
			}
		}
	}
	for i, c := range r.Columns {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%-*s", widths[i], c)
	}
	b.WriteByte('\n')
	for _, row := range cells {
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

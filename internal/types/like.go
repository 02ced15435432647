package types

import "strings"

// LikeFolded is LIKE, as the catalog's queries and the SQL engine both
// mean it, against a pattern that is already lower-cased
// (strings.ToLower): % any run, _ one byte, case-folded.
//
// It is the iterative wildcard match: on a mismatch it returns to the
// most recent % and lets it take one more byte, and a later % makes
// every earlier one final, so the work is bounded by len(s)·len(p)
// however many % the pattern has. (A recursive matcher retries every
// earlier % as well — exponential in their number, and the catalog
// matches under its read lock.) It allocates nothing for an ASCII value.
func LikeFolded(s, p string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			// Case outside ASCII can change a value's length; fold the
			// whole value the way the pattern was folded.
			s = strings.ToLower(s)
			break
		}
	}
	si, pi := 0, 0
	star, mark := -1, 0 // pattern index after the last %, and the value index it resumes from
	for si < len(s) {
		switch {
		case pi < len(p) && p[pi] == '%':
			pi++
			star, mark = pi, si
		case pi < len(p) && (p[pi] == '_' || p[pi] == lowerByte(s[si])):
			si++
			pi++
		case star >= 0:
			mark++
			si, pi = mark, star
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}

func lowerByte(b byte) byte {
	if 'A' <= b && b <= 'Z' {
		return b + ('a' - 'A')
	}
	return b
}

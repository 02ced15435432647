package types

import (
	gopath "path"
	"strings"
)

// Logical paths form the SRB name space. They are slash-separated,
// always absolute, and "/" is the root collection. These helpers keep
// every component of the system agreeing on normalisation.

// CleanPath normalises a logical path: forces a leading slash, applies
// lexical cleaning, and strips any trailing slash except on the root.
func CleanPath(p string) string {
	if p == "" {
		return "/"
	}
	if !strings.HasPrefix(p, "/") {
		p = "/" + p
	}
	p = gopath.Clean(p)
	return p
}

// Join joins path elements into a cleaned logical path.
func Join(elem ...string) string {
	return CleanPath(gopath.Join(elem...))
}

// Base returns the last element of the logical path; the root yields "/".
func Base(p string) string { return gopath.Base(CleanPath(p)) }

// Parent returns the parent collection of p; the root is its own parent.
func Parent(p string) string { return gopath.Dir(CleanPath(p)) }

// IsRoot reports whether p is the root collection.
func IsRoot(p string) bool { return CleanPath(p) == "/" }

// Within reports whether path p lies strictly inside collection c
// (p != c and p has c as an ancestor).
func Within(c, p string) bool {
	c, p = CleanPath(c), CleanPath(p)
	if c == p {
		return false
	}
	if c == "/" {
		return true
	}
	return strings.HasPrefix(p, c+"/")
}

// WithinOrEqual reports whether p equals c or lies inside it.
func WithinOrEqual(c, p string) bool {
	return CleanPath(c) == CleanPath(p) || Within(c, p)
}

// Ancestors returns every ancestor collection of p from the root down
// to (and excluding) p itself. For "/a/b/c" it returns
// ["/", "/a", "/a/b"]. The root has no ancestors.
func Ancestors(p string) []string {
	p = CleanPath(p)
	if p == "/" {
		return nil
	}
	// One ancestor per slash, each a prefix of p: nothing is copied.
	out := make([]string, 0, strings.Count(p, "/"))
	out = append(out, "/")
	for i := 1; i < len(p); i++ {
		if p[i] == '/' {
			out = append(out, p[:i])
		}
	}
	return out
}

// ValidName reports whether s is usable as an object or collection base
// name: non-empty, no slash, and not "." or "..".
func ValidName(s string) bool {
	if s == "" || s == "." || s == ".." {
		return false
	}
	return !strings.ContainsAny(s, "/\x00")
}

// Rebase rewrites path p, which must lie within (or equal) from, to the
// corresponding path under to. It is the primitive behind recursive
// move and copy: Rebase("/a", "/x", "/a/b/c") == "/x/b/c".
// If p is outside from, p is returned unchanged.
func Rebase(from, to, p string) string {
	from, to, p = CleanPath(from), CleanPath(to), CleanPath(p)
	if p == from {
		return to
	}
	if !Within(from, p) {
		return p
	}
	suffix := strings.TrimPrefix(p, strings.TrimSuffix(from, "/")+"/")
	return Join(to, suffix)
}

// Depth returns the number of components below the root: Depth("/")==0,
// Depth("/a/b")==2.
func Depth(p string) int {
	p = CleanPath(p)
	if p == "/" {
		return 0
	}
	return strings.Count(p, "/")
}

package types

import (
	"strings"
	"testing"
)

// FuzzPathOps ensures the logical-path helpers uphold their contracts
// on arbitrary input: cleaned paths are absolute and idempotent, and
// the Parent/Base/Join relations hold.
func FuzzPathOps(f *testing.F) {
	f.Add("/a/b/c", "name")
	f.Add("", "..")
	f.Add("//..//x", "y/z")
	f.Fuzz(func(t *testing.T, p, name string) {
		c := CleanPath(p)
		if !strings.HasPrefix(c, "/") {
			t.Fatalf("CleanPath(%q) = %q not absolute", p, c)
		}
		if CleanPath(c) != c {
			t.Fatalf("CleanPath not idempotent on %q", p)
		}
		for _, a := range Ancestors(c) {
			if !WithinOrEqual(a, c) {
				t.Fatalf("ancestor %q not above %q", a, c)
			}
		}
		if ValidName(name) && !strings.Contains(name, ".") {
			j := Join(c, name)
			if Parent(j) != c || Base(j) != name {
				t.Fatalf("Join/Parent/Base mismatch: %q + %q -> %q", c, name, j)
			}
		}
	})
}

// pathCases are rows whose Path must equal Join(Collection, Name): the
// root, unclean collections and names that are not base names.
var pathCases = []struct{ coll, name string }{
	{"/", "a"}, {"/a", "b"}, {"/a/b", "c.d"}, {"/", ""}, {"", "a"},
	{"//a", "b"}, {"/a/", "b"}, {"a", "b"}, {"/a/./b", "c"}, {"/a/../b", "c"},
	{"/a", "."}, {"/a", ".."}, {"/a", "a/b"}, {"/", ".."}, {"/a", "b\x00"},
	{"/a", "..b"}, {"/a", "b/"},
}

// TestDataObjectPath: the one-allocation join of a clean row is Join,
// and every other row falls back to it.
func TestDataObjectPath(t *testing.T) {
	for _, c := range pathCases {
		o := DataObject{Collection: c.coll, Name: c.name}
		if got, want := o.Path(), Join(c.coll, c.name); got != want {
			t.Errorf("Path of (%q, %q) = %q, Join = %q", c.coll, c.name, got, want)
		}
	}
}

// FuzzDataObjectPath: for any collection and name, Path is Join.
func FuzzDataObjectPath(f *testing.F) {
	for _, c := range pathCases {
		f.Add(c.coll, c.name)
	}
	f.Fuzz(func(t *testing.T, coll, name string) {
		o := DataObject{Collection: coll, Name: name}
		if got, want := o.Path(), Join(coll, name); got != want {
			t.Fatalf("Path of (%q, %q) = %q, Join = %q", coll, name, got, want)
		}
	})
}

// TestDataObjectPathAllocs: the path of a clean row is one allocation.
func TestDataObjectPathAllocs(t *testing.T) {
	for _, o := range []DataObject{{Collection: "/", Name: "f"}, {Collection: "/home/u", Name: "f.txt"}} {
		if n := testing.AllocsPerRun(100, func() { _ = o.Path() }); n != 1 {
			t.Errorf("Path of %q in %q: %.0f allocations, want 1", o.Name, o.Collection, n)
		}
	}
}

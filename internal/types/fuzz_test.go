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
// and every other row falls back to it; PathIs agrees with it.
func TestDataObjectPath(t *testing.T) {
	for _, c := range pathCases {
		o := DataObject{Collection: c.coll, Name: c.name}
		if got, want := o.Path(), Join(c.coll, c.name); got != want {
			t.Errorf("Path of (%q, %q) = %q, Join = %q", c.coll, c.name, got, want)
		}
		checkPathIs(t, &o)
	}
}

// checkPathIs fails when PathIs disagrees with Path on the row's path or
// on a near miss of it.
func checkPathIs(t *testing.T, o *DataObject) {
	t.Helper()
	p := o.Path()
	for _, q := range []string{p, p + "x", p + "/", "/" + p, strings.TrimSuffix(p, "/"+o.Name) + "//" + o.Name, ""} {
		if got := o.PathIs(q); got != (q == p) {
			t.Errorf("PathIs(%q) of (%q, %q) = %v, Path = %q", q, o.Collection, o.Name, got, p)
		}
	}
}

// FuzzDataObjectPath: for any collection and name, Path is Join, and
// PathIs agrees with it.
func FuzzDataObjectPath(f *testing.F) {
	for _, c := range pathCases {
		f.Add(c.coll, c.name)
	}
	f.Fuzz(func(t *testing.T, coll, name string) {
		o := DataObject{Collection: coll, Name: name}
		if got, want := o.Path(), Join(coll, name); got != want {
			t.Fatalf("Path of (%q, %q) = %q, Join = %q", coll, name, got, want)
		}
		checkPathIs(t, &o)
	})
}

// TestDataObjectPathAllocs: the path of a clean row is one allocation,
// and checking a path against it none.
func TestDataObjectPathAllocs(t *testing.T) {
	for _, o := range []DataObject{{Collection: "/", Name: "f"}, {Collection: "/home/u", Name: "f.txt"}} {
		if n := testing.AllocsPerRun(100, func() { _ = o.Path() }); n != 1 {
			t.Errorf("Path of %q in %q: %.0f allocations, want 1", o.Name, o.Collection, n)
		}
		p := o.Path()
		if n := testing.AllocsPerRun(100, func() { _ = o.PathIs(p) }); n != 0 {
			t.Errorf("PathIs of %q in %q: %.0f allocations, want 0", o.Name, o.Collection, n)
		}
	}
}

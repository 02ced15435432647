package posixfs

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"gosrb/internal/storage"
	"gosrb/internal/storage/drivertest"
	"gosrb/internal/types"
)

func TestConformance(t *testing.T) {
	drivertest.Run(t, func(t *testing.T) storage.Driver {
		d, err := New(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		return d
	})
}

func TestEscapeRejected(t *testing.T) {
	d, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Path cleaning maps traversal back inside the root rather than
	// letting it escape.
	if err := storage.WriteAll(d, "/../../etc/escape-test", []byte("x")); err != nil {
		t.Fatalf("cleaned traversal should stay in root: %v", err)
	}
	if _, err := os.Stat(filepath.Join(d.Root(), "etc", "escape-test")); err != nil {
		t.Errorf("file should land under root: %v", err)
	}
	if _, err := d.Create("/a\x00b"); !errors.Is(err, types.ErrInvalid) {
		t.Errorf("NUL path: %v", err)
	}
}

func TestAtomicVisibility(t *testing.T) {
	d, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w, err := d.Create("/part")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("half")); err != nil {
		t.Fatal(err)
	}
	// Before Close the destination must not exist.
	if _, err := d.Stat("/part"); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("partial write visible: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := storage.ReadAll(d, "/part"); err != nil || string(got) != "half" {
		t.Errorf("after close: %q, %v", got, err)
	}
}

func TestTempFilesHiddenFromList(t *testing.T) {
	d, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteAll(d, "/dir/real", []byte("x")); err != nil {
		t.Fatal(err)
	}
	w, err := d.Create("/dir/pending")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	infos, err := d.List("/dir")
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Path != "/dir/real" {
		t.Errorf("List leaked temp file: %+v", infos)
	}
}

func TestOpenDirectoryRejected(t *testing.T) {
	d, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Mkdir("/adir"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Open("/adir"); !errors.Is(err, types.ErrInvalid) {
		t.Errorf("Open dir: %v", err)
	}
	if err := d.Remove("/adir"); !errors.Is(err, types.ErrInvalid) {
		t.Errorf("Remove dir: %v", err)
	}
}

func TestListRoot(t *testing.T) {
	d, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteAll(d, "/top.txt", []byte("x")); err != nil {
		t.Fatal(err)
	}
	infos, err := d.List("/")
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 || infos[0].Path != "/top.txt" {
		t.Errorf("List(/) = %+v", infos)
	}
}

func TestRenameIntoNewDirectory(t *testing.T) {
	d, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	storage.WriteAll(d, "/a", []byte("x"))
	if err := d.Rename("/a", "/deep/new/dir/b"); err != nil {
		t.Fatalf("rename into new dirs: %v", err)
	}
	if got, err := storage.ReadAll(d, "/deep/new/dir/b"); err != nil || string(got) != "x" {
		t.Errorf("renamed = %q, %v", got, err)
	}
}

func TestRootAccessor(t *testing.T) {
	dir := t.TempDir()
	d, err := New(dir)
	if err != nil {
		t.Fatal(err)
	}
	if d.Root() == "" {
		t.Error("Root should be non-empty")
	}
	// Creating under a file path (not dir) fails cleanly.
	if err := os.WriteFile(filepath.Join(dir, "blocker"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteAll(d, "/blocker/child", []byte("x")); err == nil {
		t.Error("write under a file should fail")
	}
}

// TestResolve holds the host path every logical path maps to: a NUL, the
// root itself and every spelling of it are refused as invalid; traversal
// is cleaned back inside the root; anything else lands under the root.
// It costs one allocation, the host path.
func TestResolve(t *testing.T) {
	d, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	root := d.Root()
	for _, c := range []struct {
		path string
		want string // "" = refused as invalid
	}{
		{"", ""},
		{"/", ""},
		{"//", ""},
		{"/.", ""},
		{"/..", ""},
		{"/a/..", ""},
		{"/../..", ""},
		{"/a\x00b", ""},
		{"\x00", ""},
		{"/a/b", filepath.Join(root, "a", "b")},
		{"a/b", filepath.Join(root, "a", "b")},
		{"/a//b/", filepath.Join(root, "a", "b")},
		{"/a/./b/../c", filepath.Join(root, "a", "c")},
		{"/../../etc/passwd", filepath.Join(root, "etc", "passwd")},
		{"/..x/y..", filepath.Join(root, "..x", "y..")},
	} {
		got, err := d.resolve(c.path)
		switch {
		case c.want == "" && !errors.Is(err, types.ErrInvalid):
			t.Errorf("resolve(%q) = %q, %v; want invalid", c.path, got, err)
		case c.want != "" && (err != nil || got != c.want):
			t.Errorf("resolve(%q) = %q, %v; want %q", c.path, got, err, c.want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { d.resolve("/c000/o00000.dat") }); n != 1 {
		t.Errorf("resolve allocates %.1f objects, want 1 (the host path)", n)
	}
}

// TestOpenAllocs: opening a file costs the host path and what os.Open
// makes, and the directory check adds nothing (an fstat into the stack,
// not an os.FileInfo). The budget is measured: it read 5 when the check
// was fh.Stat.
func TestOpenAllocs(t *testing.T) {
	d, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteAll(d, "/vault/001/oid1.r0", []byte("x")); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(100, func() {
		f, err := d.Open("/vault/001/oid1.r0")
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
	})
	const budget = 4
	if n > budget {
		t.Errorf("Open of a file: %.0f allocations, budget %d", n, budget)
	}
}

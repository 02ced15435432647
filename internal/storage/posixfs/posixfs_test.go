package posixfs

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"gosrb/internal/durable"
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

// TestResolve holds the host path, relative to the root, every logical
// path maps to: a NUL, the root itself and every spelling of it are
// refused as invalid; traversal is cleaned back inside the root;
// anything else lands under the root. A clean path costs nothing.
func TestResolve(t *testing.T) {
	d, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
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
		{"/a/b", filepath.Join("a", "b")},
		{"a/b", filepath.Join("a", "b")},
		{"/a//b/", filepath.Join("a", "b")},
		{"/a/./b/../c", filepath.Join("a", "c")},
		{"/../../etc/passwd", filepath.Join("etc", "passwd")},
		{"/..x/y..", filepath.Join("..x", "y..")},
	} {
		got, err := d.resolve(c.path)
		switch {
		case c.want == "" && !errors.Is(err, types.ErrInvalid):
			t.Errorf("resolve(%q) = %q, %v; want invalid", c.path, got, err)
		case c.want != "" && (err != nil || got != c.want):
			t.Errorf("resolve(%q) = %q, %v; want %q", c.path, got, err, c.want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { d.resolve("/c000/o00000.dat") }); n != 0 {
		t.Errorf("resolve allocates %.1f objects, want 0", n)
	}
}

// TestOpenAllocs: opening a file costs its durable.Reader and nothing
// else (the path is joined on the stack, the directory check is an
// fstat into the stack); publishing a replica costs its atomicWriter;
// removing one costs nothing. The budgets are measured: Open read 4
// over an *os.File (5 when the check was fh.Stat). Where durable falls
// back to *os.File they do not hold, and are not checked.
func TestOpenAllocs(t *testing.T) {
	if runtime.GOOS != "linux" || (runtime.GOARCH != "amd64" && runtime.GOARCH != "arm64") {
		t.Skip("durable reaches files through *os.File on " + runtime.GOOS + "/" + runtime.GOARCH)
	}
	d, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const path = "/vault/001/oid1.r0"
	if err := storage.WriteAll(d, path, []byte("x")); err != nil {
		t.Fatal(err)
	}
	body := []byte("hello")
	for _, c := range []struct {
		name   string
		op     func()
		budget float64
	}{
		{"Open+Close", func() {
			f, err := d.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			f.Close()
		}, 1},
		{"Create+Write+Close", func() {
			if err := storage.WriteAll(d, path, body); err != nil {
				t.Fatal(err)
			}
		}, 1},
	} {
		if n := testing.AllocsPerRun(100, c.op); n > c.budget {
			t.Errorf("%s: %.0f allocations, budget %.0f", c.name, n, c.budget)
		}
	}
	// A Remove needs a file to remove: it is measured after a publish,
	// with the publish's budget.
	n := testing.AllocsPerRun(100, func() {
		if err := storage.WriteAll(d, path, body); err != nil {
			t.Fatal(err)
		}
		if err := d.Remove(path); err != nil {
			t.Fatal(err)
		}
	})
	if n > 1 {
		t.Errorf("Remove: %.0f allocations with a publish, budget 0 (+1 for the publish)", n)
	}
}

// TestNoDescriptorLeak: a thousand of each way a posixfs file is
// opened, published, dropped or refused leave no descriptor open.
func TestNoDescriptorLeak(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("counts /proc/self/fd")
	}
	d, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Mkdir("/dir"); err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteAll(d, "/f", []byte("x")); err != nil {
		t.Fatal(err)
	}
	open := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(ents)
	}
	before := open()
	for i := 0; i < 1000; i++ {
		f, err := d.Open("/f")
		if err != nil {
			t.Fatal(err)
		}
		f.Close()
		if err := storage.WriteAll(d, "/f", []byte("x")); err != nil {
			t.Fatal(err)
		}
		w, err := d.Create("/g")
		if err != nil {
			t.Fatal(err)
		}
		w.Write([]byte("y"))
		if !storage.Abort(d, "/g", w) {
			t.Fatal("Abort of a posixfs writer did not keep the old contents")
		}
		if _, err := d.Open("/dir"); !errors.Is(err, types.ErrInvalid) {
			t.Fatalf("Open of a directory = %v", err)
		}
		if _, err := d.Open("/missing"); !errors.Is(err, types.ErrNotFound) {
			t.Fatalf("Open of a missing file = %v", err)
		}
		if w, err = d.Create("/dir"); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); !errors.Is(err, types.ErrExists) {
			t.Fatalf("Close over a directory = %v", err)
		}
	}
	if after := open(); after != before {
		t.Errorf("%d descriptors open before, %d after", before, after)
	}
}

// TestCreateOverDirectory: a Create whose destination is a directory,
// empty or not, fails at Close as a name collision, leaves the
// directory as it was and no temp file beside it.
func TestCreateOverDirectory(t *testing.T) {
	d, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"/empty", "/full"} {
		if err := d.Mkdir(dir); err != nil {
			t.Fatal(err)
		}
	}
	if err := storage.WriteAll(d, "/full/child", []byte("x")); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{"/empty", "/full"} {
		w, err := d.Create(dir)
		if err != nil {
			t.Fatalf("Create(%s): %v", dir, err)
		}
		if _, err := w.Write([]byte("new")); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); !errors.Is(err, types.ErrExists) {
			t.Errorf("Close over directory %s = %v, want %v", dir, err, types.ErrExists)
		}
		if fi, err := d.Stat(dir); err != nil || !fi.IsDir {
			t.Errorf("%s after the failed Close: %+v, %v", dir, fi, err)
		}
		ents, err := os.ReadDir(d.Root())
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if strings.HasPrefix(e.Name(), durable.TempPrefix) {
				t.Errorf("temp file %s left after the failed Close", e.Name())
			}
		}
	}
	if got, err := storage.ReadAll(d, "/full/child"); err != nil || string(got) != "x" {
		t.Errorf("/full/child = %q, %v", got, err)
	}
}

// TestCreateMakesItsDirectory: a Create or an OpenAppend into a missing
// directory makes it, whether only the vault bucket is missing, the
// vault too (a fresh root), or the vault went away after buckets were
// made in it; and creates or appends racing into one missing bucket all
// succeed.
func TestCreateMakesItsDirectory(t *testing.T) {
	d, err := New(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	create := func(p string) error { return storage.WriteAll(d, p, []byte(p)) }
	appendTo := func(p string) error {
		w, err := d.OpenAppend(p)
		if err != nil {
			return err
		}
		if _, err := w.Write([]byte(p)); err != nil {
			w.Close()
			return err
		}
		return w.Close()
	}
	put := func(write func(string) error, p string) error {
		if err := write(p); err != nil {
			return err
		}
		if got, err := storage.ReadAll(d, p); err != nil || string(got) != p {
			return fmt.Errorf("read back %q, %v", got, err)
		}
		return nil
	}
	for _, step := range []struct {
		name, path string
		write      func(string) error
		before     func() error
	}{
		{"fresh root", "/vault/000/oid1.r0", create, nil},
		{"missing bucket", "/vault/001/oid2.r0", create, nil},
		{"missing vault", "/vault/002/oid3.r0", create, func() error { return os.RemoveAll(filepath.Join(d.Root(), "vault")) }},
		{"missing parents", "/a/b/c/oid4.r0", create, nil},
		{"append, missing bucket", "/vault/003/seg1", appendTo, nil},
		{"append, missing parents", "/d/e/f/seg2", appendTo, nil},
	} {
		if step.before != nil {
			if err := step.before(); err != nil {
				t.Fatal(err)
			}
		}
		if err := put(step.write, step.path); err != nil {
			t.Errorf("%s: %s: %v", step.name, step.path, err)
		}
	}

	const racers = 8
	for _, race := range []struct {
		name, bucket string
		write        func(string) error
	}{{"create", "/vault/100", create}, {"append", "/vault/101", appendTo}} {
		start := make(chan struct{})
		errs := make(chan error, racers)
		for i := 0; i < racers; i++ {
			go func() {
				<-start
				errs <- put(race.write, fmt.Sprintf("%s/oid%d.r0", race.bucket, i))
			}()
		}
		close(start)
		for i := 0; i < racers; i++ {
			if err := <-errs; err != nil {
				t.Errorf("a %s racing into a missing bucket: %v", race.name, err)
			}
		}
	}
}

package memfs

import (
	"errors"
	"testing"
	"testing/quick"

	"gosrb/internal/storage"
	"gosrb/internal/storage/drivertest"
	"gosrb/internal/types"
)

func TestConformance(t *testing.T) {
	drivertest.Run(t, func(t *testing.T) storage.Driver { return New() })
}

func TestUsage(t *testing.T) {
	f := New()
	if err := storage.WriteAll(f, "/a", make([]byte, 10)); err != nil {
		t.Fatal(err)
	}
	if err := storage.WriteAll(f, "/b", make([]byte, 5)); err != nil {
		t.Fatal(err)
	}
	u := f.Usage()
	if u.Bytes != 15 || u.Files != 2 {
		t.Errorf("Usage = %+v", u)
	}
	if err := f.Remove("/a"); err != nil {
		t.Fatal(err)
	}
	if u := f.Usage(); u.Bytes != 5 || u.Files != 1 {
		t.Errorf("Usage after remove = %+v", u)
	}
}

func TestInvalidPaths(t *testing.T) {
	f := New()
	if _, err := f.Create("/"); !errors.Is(err, types.ErrInvalid) {
		t.Errorf("Create root: %v", err)
	}
	if _, err := f.Create("/a\x00b"); !errors.Is(err, types.ErrInvalid) {
		t.Errorf("Create NUL: %v", err)
	}
	if err := storage.WriteAll(f, "relative/p", []byte("x")); err != nil {
		t.Errorf("relative paths should be cleaned to absolute: %v", err)
	}
	if _, err := f.Open("/relative/p"); err != nil {
		t.Errorf("cleaned path should resolve: %v", err)
	}
}

func TestWriteAfterClose(t *testing.T) {
	f := New()
	w, err := f.Create("/x")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("late")); !errors.Is(err, types.ErrInvalid) {
		t.Errorf("write after close: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Errorf("double close should be nil: %v", err)
	}
}

func TestListRoot(t *testing.T) {
	f := New()
	if err := storage.WriteAll(f, "/top", []byte("x")); err != nil {
		t.Fatal(err)
	}
	infos, err := f.List("/")
	if err != nil {
		t.Fatalf("List root: %v", err)
	}
	if len(infos) != 1 || infos[0].Path != "/top" {
		t.Errorf("List root = %+v", infos)
	}
}

func TestListMissing(t *testing.T) {
	f := New()
	if _, err := f.List("/ghost"); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("List missing: %v", err)
	}
}

// Property: whatever bytes go in come back out unchanged.
func TestRoundTripProperty(t *testing.T) {
	f := New()
	i := 0
	fn := func(data []byte) bool {
		i++
		p := types.Join("/prop", string(rune('a'+i%26))+"f")
		if err := storage.WriteAll(f, p, data); err != nil {
			return false
		}
		got, err := storage.ReadAll(f, p)
		if err != nil {
			return false
		}
		if len(got) != len(data) {
			return false
		}
		for j := range got {
			if got[j] != data[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, nil); err != nil {
		t.Error(err)
	}
}

func TestCopyHelper(t *testing.T) {
	a, b := New(), New()
	if err := storage.WriteAll(a, "/src", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	n, err := storage.Copy(b, "/dst", a, "/src")
	if err != nil || n != 7 {
		t.Fatalf("Copy = %d, %v", n, err)
	}
	got, err := storage.ReadAll(b, "/dst")
	if err != nil || string(got) != "payload" {
		t.Errorf("copied = %q, %v", got, err)
	}
}

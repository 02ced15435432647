// Package drivertest provides a conformance suite every storage.Driver
// implementation must pass. Each driver's own test file calls Run with
// a factory producing a fresh, empty store.
package drivertest

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"

	"gosrb/internal/lend"
	"gosrb/internal/storage"
	"gosrb/internal/types"
)

// Run executes the full conformance suite against fresh drivers from
// the factory.
func Run(t *testing.T, factory func(t *testing.T) storage.Driver) {
	t.Helper()
	tests := []struct {
		name string
		fn   func(t *testing.T, d storage.Driver)
	}{
		{"CreateReadBack", testCreateReadBack},
		{"OverwriteTruncates", testOverwriteTruncates},
		{"Append", testAppend},
		{"AppendCreatesMissing", testAppendCreatesMissing},
		{"OpenMissing", testOpenMissing},
		{"StatFile", testStatFile},
		{"StatMissing", testStatMissing},
		{"RemoveAndRemoveMissing", testRemove},
		{"Rename", testRename},
		{"RenameMissing", testRenameMissing},
		{"ListChildren", testList},
		{"ReadAt", testReadAt},
		{"Seek", testSeek},
		{"EmptyFile", testEmptyFile},
		{"LargeFile", testLargeFile},
		{"ConcurrentWriters", testConcurrentWriters},
		{"SnapshotIsolation", testSnapshotIsolation},
		{"ReadAfterClose", testReadAfterClose},
		{"MkdirAndStat", testMkdir},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			tc.fn(t, factory(t))
		})
	}
}

func mustWrite(t *testing.T, d storage.Driver, path string, data []byte) {
	t.Helper()
	if err := storage.WriteAll(d, path, data); err != nil {
		t.Fatalf("WriteAll(%s): %v", path, err)
	}
}

func mustRead(t *testing.T, d storage.Driver, path string) []byte {
	t.Helper()
	b, err := storage.ReadAll(d, path)
	if err != nil {
		t.Fatalf("ReadAll(%s): %v", path, err)
	}
	return b
}

func testCreateReadBack(t *testing.T, d storage.Driver) {
	want := []byte("hello, data grid")
	mustWrite(t, d, "/v1/f.txt", want)
	if got := mustRead(t, d, "/v1/f.txt"); !bytes.Equal(got, want) {
		t.Errorf("read back %q, want %q", got, want)
	}
}

func testOverwriteTruncates(t *testing.T, d storage.Driver) {
	mustWrite(t, d, "/f", []byte("a long first version"))
	mustWrite(t, d, "/f", []byte("short"))
	if got := mustRead(t, d, "/f"); string(got) != "short" {
		t.Errorf("after overwrite: %q", got)
	}
}

func testAppend(t *testing.T, d storage.Driver) {
	mustWrite(t, d, "/seg", []byte("aaa"))
	w, err := d.OpenAppend("/seg")
	if err != nil {
		t.Fatalf("OpenAppend: %v", err)
	}
	if _, err := w.Write([]byte("bbb")); err != nil {
		t.Fatalf("append write: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got := mustRead(t, d, "/seg"); string(got) != "aaabbb" {
		t.Errorf("after append: %q", got)
	}
}

func testAppendCreatesMissing(t *testing.T, d storage.Driver) {
	w, err := d.OpenAppend("/new/seg")
	if err != nil {
		t.Fatalf("OpenAppend new: %v", err)
	}
	fmt.Fprint(w, "x")
	if err := w.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got := mustRead(t, d, "/new/seg"); string(got) != "x" {
		t.Errorf("appended new file: %q", got)
	}
}

func testOpenMissing(t *testing.T, d storage.Driver) {
	if _, err := d.Open("/nope"); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("Open missing: %v, want ErrNotFound", err)
	}
}

func testStatFile(t *testing.T, d storage.Driver) {
	mustWrite(t, d, "/s/f", []byte("12345"))
	fi, err := d.Stat("/s/f")
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	if fi.Size != 5 || fi.IsDir {
		t.Errorf("Stat = %+v", fi)
	}
}

func testStatMissing(t *testing.T, d storage.Driver) {
	if _, err := d.Stat("/nope"); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("Stat missing: %v, want ErrNotFound", err)
	}
}

func testRemove(t *testing.T, d storage.Driver) {
	mustWrite(t, d, "/rm", []byte("x"))
	if err := d.Remove("/rm"); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, err := d.Open("/rm"); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("open after remove: %v", err)
	}
	if err := d.Remove("/rm"); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("second remove: %v, want ErrNotFound", err)
	}
}

func testRename(t *testing.T, d storage.Driver) {
	mustWrite(t, d, "/a/x", []byte("payload"))
	if err := d.Rename("/a/x", "/b/y"); err != nil {
		t.Fatalf("Rename: %v", err)
	}
	if _, err := d.Open("/a/x"); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("old path still opens: %v", err)
	}
	if got := mustRead(t, d, "/b/y"); string(got) != "payload" {
		t.Errorf("renamed contents: %q", got)
	}
}

func testRenameMissing(t *testing.T, d storage.Driver) {
	if err := d.Rename("/no", "/where"); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("Rename missing: %v, want ErrNotFound", err)
	}
}

func testList(t *testing.T, d storage.Driver) {
	mustWrite(t, d, "/dir/a", []byte("1"))
	mustWrite(t, d, "/dir/b", []byte("22"))
	mustWrite(t, d, "/dir/sub/c", []byte("333"))
	infos, err := d.List("/dir")
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(infos) != 3 {
		t.Fatalf("List returned %d entries: %+v", len(infos), infos)
	}
	if infos[0].Path != "/dir/a" || infos[1].Path != "/dir/b" || infos[2].Path != "/dir/sub" {
		t.Errorf("List order/paths: %+v", infos)
	}
	if !infos[2].IsDir {
		t.Errorf("sub should be a directory: %+v", infos[2])
	}
	if infos[1].Size != 2 {
		t.Errorf("size of b: %+v", infos[1])
	}
}

func testReadAt(t *testing.T, d storage.Driver) {
	mustWrite(t, d, "/ra", []byte("0123456789"))
	r, err := d.Open("/ra")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	buf := make([]byte, 4)
	if _, err := r.ReadAt(buf, 3); err != nil && err != io.EOF {
		t.Fatalf("ReadAt: %v", err)
	}
	if string(buf) != "3456" {
		t.Errorf("ReadAt = %q", buf)
	}
	// positional read must not disturb the sequential cursor
	head := make([]byte, 2)
	if _, err := io.ReadFull(r, head); err != nil {
		t.Fatalf("sequential read: %v", err)
	}
	if string(head) != "01" {
		t.Errorf("sequential after ReadAt = %q", head)
	}
}

func testSeek(t *testing.T, d storage.Driver) {
	mustWrite(t, d, "/sk", []byte("abcdefgh"))
	r, err := d.Open("/sk")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	if _, err := r.Seek(4, io.SeekStart); err != nil {
		t.Fatalf("Seek: %v", err)
	}
	rest, _ := io.ReadAll(r)
	if string(rest) != "efgh" {
		t.Errorf("after seek: %q", rest)
	}
	if _, err := r.Seek(-2, io.SeekEnd); err != nil {
		t.Fatalf("SeekEnd: %v", err)
	}
	tail, _ := io.ReadAll(r)
	if string(tail) != "gh" {
		t.Errorf("after seek end: %q", tail)
	}
}

func testEmptyFile(t *testing.T, d storage.Driver) {
	mustWrite(t, d, "/empty", nil)
	if got := mustRead(t, d, "/empty"); len(got) != 0 {
		t.Errorf("empty file read %d bytes", len(got))
	}
	fi, err := d.Stat("/empty")
	if err != nil || fi.Size != 0 {
		t.Errorf("Stat empty: %+v err %v", fi, err)
	}
}

func testLargeFile(t *testing.T, d storage.Driver) {
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i * 31)
	}
	mustWrite(t, d, "/big", big)
	if got := mustRead(t, d, "/big"); !bytes.Equal(got, big) {
		t.Error("large file round trip failed")
	}
}

func testConcurrentWriters(t *testing.T, d storage.Driver) {
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := fmt.Sprintf("/conc/f%d", i)
			data := bytes.Repeat([]byte{byte('a' + i)}, 100+i)
			if err := storage.WriteAll(d, p, data); err != nil {
				t.Errorf("concurrent write %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < 8; i++ {
		p := fmt.Sprintf("/conc/f%d", i)
		got := mustRead(t, d, p)
		if len(got) != 100+i || got[0] != byte('a'+i) {
			t.Errorf("file %d corrupted: len %d", i, len(got))
		}
	}
}

func testSnapshotIsolation(t *testing.T, d storage.Driver) {
	mustWrite(t, d, "/snap", []byte("version-one"))
	r, err := d.Open("/snap")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	mustWrite(t, d, "/snap", []byte("version-two!"))
	got, _ := io.ReadAll(r)
	// Drivers may serve either version, but must serve a consistent one.
	if string(got) != "version-one" && string(got) != "version-two!" {
		t.Errorf("torn read: %q", got)
	}
}

// testReadAfterClose holds a read handle's Close as its last use: a
// Read, ReadAt or Seek after it returns an error and moves no byte, or,
// for a handle lent from a pool under the framecanary build tag (package
// lend), panics.
func testReadAfterClose(t *testing.T, d storage.Driver) {
	mustWrite(t, d, "/closed", []byte("0123456789"))
	r, err := d.Open("/closed")
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	buf := make([]byte, 4)
	for _, c := range []struct {
		name string
		call func() (int64, error)
	}{
		{"Read", func() (int64, error) { n, err := r.Read(buf); return int64(n), err }},
		{"ReadAt", func() (int64, error) { n, err := r.ReadAt(buf, 2); return int64(n), err }},
		{"Seek", func() (int64, error) { return r.Seek(3, io.SeekStart) }},
	} {
		func() {
			defer func() {
				if v := recover(); v != nil && !lend.Canary {
					t.Errorf("%s after Close panicked: %v", c.name, v)
				}
			}()
			if n, err := c.call(); err == nil || n != 0 {
				t.Errorf("%s after Close = %d, %v; want an error and nothing moved", c.name, n, err)
			}
		}()
		if bytes.ContainsAny(buf, "0123456789") {
			t.Fatalf("%s after Close read %q", c.name, buf)
		}
	}
}

func testMkdir(t *testing.T, d storage.Driver) {
	if err := d.Mkdir("/made/deep"); err != nil {
		t.Fatalf("Mkdir: %v", err)
	}
	fi, err := d.Stat("/made/deep")
	if err != nil {
		t.Fatalf("Stat dir: %v", err)
	}
	if !fi.IsDir {
		t.Errorf("Stat dir = %+v, want IsDir", fi)
	}
}

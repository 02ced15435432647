package container

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"
	"testing/quick"

	"gosrb/internal/storage"
	"gosrb/internal/storage/memfs"
	"gosrb/internal/types"
)

// readMember reads one member's bytes through Member, on an open of
// the segment of its own.
func readMember(d storage.Driver, path string, offset, size int64) ([]byte, error) {
	f, err := d.Open(path)
	if err != nil {
		return nil, err
	}
	m, err := Member(f, offset, size)
	if err != nil {
		return nil, err
	}
	defer m.Close()
	return io.ReadAll(m)
}

func TestAppendAndRead(t *testing.T) {
	d := memfs.New()
	w, err := NewWriter(d, "/cont/seg1")
	if err != nil {
		t.Fatal(err)
	}
	type member struct {
		data []byte
		off  int64
	}
	var members []member
	for i := 0; i < 10; i++ {
		data := bytes.Repeat([]byte{byte('a' + i)}, 10+i*3)
		off, err := w.Append(data)
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, member{data, off})
	}
	for i, m := range members {
		got, err := readMember(d, "/cont/seg1", m.off, int64(len(m.data)))
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
		if !bytes.Equal(got, m.data) {
			t.Errorf("member %d corrupted", i)
		}
	}
}

func TestWriterResume(t *testing.T) {
	d := memfs.New()
	w1, err := NewWriter(d, "/seg")
	if err != nil {
		t.Fatal(err)
	}
	off1, _ := w1.Append([]byte("first"))
	// A fresh writer must resume at the end, not clobber.
	w2, err := NewWriter(d, "/seg")
	if err != nil {
		t.Fatal(err)
	}
	if w2.Size() != w1.Size() {
		t.Errorf("resume size = %d, want %d", w2.Size(), w1.Size())
	}
	off2, _ := w2.Append([]byte("second"))
	if off2 <= off1 {
		t.Errorf("offsets must grow: %d then %d", off1, off2)
	}
	got, err := readMember(d, "/seg", off1, 5)
	if err != nil || string(got) != "first" {
		t.Errorf("first member after resume: %q, %v", got, err)
	}
	got, _ = readMember(d, "/seg", off2, 6)
	if string(got) != "second" {
		t.Errorf("second member: %q", got)
	}
}

func TestScanRecoversMembers(t *testing.T) {
	d := memfs.New()
	w, _ := NewWriter(d, "/seg")
	var wantOffs []int64
	var wantData [][]byte
	for i := 0; i < 5; i++ {
		data := []byte(fmt.Sprintf("payload-%d", i))
		off, err := w.Append(data)
		if err != nil {
			t.Fatal(err)
		}
		wantOffs = append(wantOffs, off)
		wantData = append(wantData, data)
	}
	recs, err := Scan(d, "/seg")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 {
		t.Fatalf("Scan found %d records", len(recs))
	}
	for i, r := range recs {
		if r.Offset != wantOffs[i] || r.Size != int64(len(wantData[i])) {
			t.Errorf("record %d = %+v, want off %d size %d", i, r, wantOffs[i], len(wantData[i]))
		}
		got, _ := readMember(d, "/seg", r.Offset, r.Size)
		if !bytes.Equal(got, wantData[i]) {
			t.Errorf("record %d payload mismatch", i)
		}
	}
}

func TestScanEmptySegment(t *testing.T) {
	d := memfs.New()
	if _, err := NewWriter(d, "/seg"); err != nil {
		t.Fatal(err)
	}
	recs, err := Scan(d, "/seg")
	if err != nil || len(recs) != 0 {
		t.Errorf("empty scan = %v, %v", recs, err)
	}
}

func TestScanRejectsCorruption(t *testing.T) {
	d := memfs.New()
	if err := storage.WriteAll(d, "/bad", []byte("not a container segment")); err != nil {
		t.Fatal(err)
	}
	if _, err := Scan(d, "/bad"); !errors.Is(err, types.ErrInvalid) {
		t.Errorf("bad magic: %v", err)
	}
	// Truncated payload: valid header claims more bytes than exist.
	w, _ := NewWriter(d, "/trunc")
	w.Append([]byte("complete"))
	full, _ := storage.ReadAll(d, "/trunc")
	if err := storage.WriteAll(d, "/trunc", full[:len(full)-3]); err != nil {
		t.Fatal(err)
	}
	recs, err := Scan(d, "/trunc")
	if err == nil {
		t.Errorf("truncated segment should error, got %d records", len(recs))
	}
	// Short file (no header).
	storage.WriteAll(d, "/short", []byte("xy"))
	if _, err := Scan(d, "/short"); !errors.Is(err, types.ErrInvalid) {
		t.Errorf("short segment: %v", err)
	}
}

func TestReadGuards(t *testing.T) {
	d := memfs.New()
	w, _ := NewWriter(d, "/seg")
	off, _ := w.Append([]byte("data"))
	if _, err := readMember(d, "/seg", 0, 4); !errors.Is(err, types.ErrInvalid) {
		t.Errorf("offset inside header: %v", err)
	}
	if _, err := readMember(d, "/seg", off, 9999); err == nil {
		t.Error("read past end should fail")
	}
	if _, err := readMember(d, "/missing", off, 4); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("missing segment: %v", err)
	}
}

func TestCopySegment(t *testing.T) {
	src, dst := memfs.New(), memfs.New()
	w, _ := NewWriter(src, "/seg")
	off, _ := w.Append([]byte("hello"))
	n, err := storage.Copy(dst, "/archived", src, "/seg")
	if err != nil || n != w.Size() {
		t.Fatalf("Copy = %d, %v (want %d)", n, err, w.Size())
	}
	got, err := readMember(dst, "/archived", off, 5)
	if err != nil || string(got) != "hello" {
		t.Errorf("copied member = %q, %v", got, err)
	}
	recs, err := Scan(dst, "/archived")
	if err != nil || len(recs) != 1 {
		t.Errorf("scan of copy = %v, %v", recs, err)
	}
}

func TestEmptyPayload(t *testing.T) {
	d := memfs.New()
	w, _ := NewWriter(d, "/seg")
	off, err := w.Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := readMember(d, "/seg", off, 0)
	if err != nil || len(got) != 0 {
		t.Errorf("empty member = %v, %v", got, err)
	}
	recs, err := Scan(d, "/seg")
	if err != nil || len(recs) != 1 || recs[0].Size != 0 {
		t.Errorf("scan = %v, %v", recs, err)
	}
}

func TestNewWriterRejectsGarbage(t *testing.T) {
	d := memfs.New()
	storage.WriteAll(d, "/tiny", []byte("x"))
	if _, err := NewWriter(d, "/tiny"); !errors.Is(err, types.ErrInvalid) {
		t.Errorf("tiny segment: %v", err)
	}
}

// Property: for any sequence of payload sizes, the recorded offsets
// read back each payload exactly, and Scan recovers the same layout.
func TestAppendScanProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		if len(sizes) > 40 {
			sizes = sizes[:40]
		}
		d := memfs.New()
		w, err := NewWriter(d, "/seg")
		if err != nil {
			return false
		}
		type rec struct {
			off  int64
			data []byte
		}
		var recs []rec
		for i, sz := range sizes {
			data := bytes.Repeat([]byte{byte(i + 1)}, int(sz)%2048)
			off, err := w.Append(data)
			if err != nil {
				return false
			}
			recs = append(recs, rec{off, data})
		}
		for _, r := range recs {
			got, err := readMember(d, "/seg", r.off, int64(len(r.data)))
			if err != nil || !bytes.Equal(got, r.data) {
				return false
			}
		}
		scanned, err := Scan(d, "/seg")
		if err != nil || len(scanned) != len(recs) {
			return false
		}
		for i, s := range scanned {
			if s.Offset != recs[i].off || s.Size != int64(len(recs[i].data)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

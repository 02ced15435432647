package durable

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"

	"gosrb/internal/lend"
)

// readerOp is one call made on a Reader and on an *os.File.
type readerOp struct {
	kind   byte // 'r' Read, 'a' ReadAt, 's' Seek, 'c' Close
	n      int  // Read or ReadAt buffer size
	off    int64
	whence int
}

func (op readerOp) String() string {
	switch op.kind {
	case 'r':
		return fmt.Sprintf("Read(%d)", op.n)
	case 'a':
		return fmt.Sprintf("ReadAt(%d, %d)", op.n, op.off)
	case 's':
		return fmt.Sprintf("Seek(%d, %d)", op.off, op.whence)
	}
	return "Close()"
}

// matchOSFile makes ops on a Reader and on an *os.File over one file of
// size bytes, and fails t where the two return different counts, bytes,
// offsets or errors (compared by their text, which names the operation
// and the path). After Close the Reader must return an error wrapping
// os.ErrClosed from every call; the *os.File does too, except for a
// ReadAt it answers before reaching its descriptor (an empty buffer, a
// negative offset). Under the framecanary build tag a closed Reader
// panics instead (package lend): it is a lent handle its holder handed
// back.
func matchOSFile(t *testing.T, size int, ops []readerOp) {
	t.Helper()
	dir := t.TempDir() + string(os.PathSeparator)
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i*7 + i>>8)
	}
	if err := os.WriteFile(dir+"f", data, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, "f")
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			r.Close()
		}
	}()
	o, err := os.Open(dir + "f")
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	text := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	for i, op := range ops {
		var gn, wn int
		var gpos, wpos int64
		var gerr, werr error
		gb, wb := make([]byte, op.n), make([]byte, op.n)
		if closed && lend.Canary {
			if !panics(func() { applyOp(r, op, gb) }) {
				t.Errorf("op %d %v after Close did not panic under the canary", i, op)
			}
			continue
		}
		switch op.kind {
		case 'r':
			gn, gerr = r.Read(gb)
			wn, werr = o.Read(wb)
		case 'a':
			gn, gerr = r.ReadAt(gb, op.off)
			wn, werr = o.ReadAt(wb, op.off)
		case 's':
			gpos, gerr = r.Seek(op.off, op.whence)
			wpos, werr = o.Seek(op.off, op.whence)
		case 'c':
			gerr, werr = r.Close(), o.Close()
			if !closed {
				closed = true
				if gerr != nil || werr != nil {
					t.Fatalf("op %d %v: first Close = %v (os: %v)", i, op, gerr, werr)
				}
				continue
			}
		}
		if closed {
			if gn != 0 || gpos != 0 || !errors.Is(gerr, os.ErrClosed) {
				t.Errorf("op %d %v after Close = %d, %d, %v; want an error wrapping os.ErrClosed", i, op, gn, gpos, gerr)
			}
			if op.kind == 'a' && (op.n == 0 || op.off < 0) {
				continue
			}
		}
		if gn != wn || gpos != wpos || !bytes.Equal(gb[:gn], wb[:wn]) || text(gerr) != text(werr) {
			t.Errorf("op %d %v = %d, %d, %v; *os.File: %d, %d, %v", i, op, gn, gpos, gerr, wn, wpos, werr)
		}
	}
}

// applyOp makes op's call on r, into p.
func applyOp(r *Reader, op readerOp, p []byte) {
	switch op.kind {
	case 'r':
		r.Read(p)
	case 'a':
		r.ReadAt(p, op.off)
	case 's':
		r.Seek(op.off, op.whence)
	default:
		r.Close()
	}
}

// panics reports whether fn panicked.
func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}

func TestReaderMatchesOSFile(t *testing.T) {
	rd := func(n int) readerOp { return readerOp{kind: 'r', n: n} }
	at := func(n int, off int64) readerOp { return readerOp{kind: 'a', n: n, off: off} }
	seek := func(off int64, whence int) readerOp { return readerOp{kind: 's', off: off, whence: whence} }
	cl := readerOp{kind: 'c'}
	for _, c := range []struct {
		name string
		size int
		ops  []readerOp
	}{
		{"read to EOF", 10, []readerOp{rd(4), rd(4), rd(4), rd(4), rd(0)}},
		{"empty file", 0, []readerOp{rd(1), rd(0), at(1, 0), at(0, 0), seek(0, io.SeekEnd)}},
		{"readat inside", 100, []readerOp{at(10, 0), at(10, 90), at(0, 50), at(100, 0)}},
		{"readat across EOF", 100, []readerOp{at(10, 95), at(200, 0), at(10, 100), at(10, 1000)}},
		{"readat negative", 100, []readerOp{at(10, -1), at(0, -5)}},
		{"readat leaves offset", 100, []readerOp{rd(10), at(10, 50), rd(10), seek(0, io.SeekCurrent)}},
		{"seek whence", 100, []readerOp{
			seek(10, io.SeekStart), rd(5), seek(5, io.SeekCurrent), rd(5), seek(-10, io.SeekEnd), rd(20),
			seek(200, io.SeekStart), rd(5), seek(-1, io.SeekStart), seek(-200, io.SeekEnd),
			seek(0, 3), seek(0, 4), seek(150, 3), seek(0, 7), seek(0, -1),
		}},
		{"after close", 100, []readerOp{rd(10), cl, rd(10), rd(0), at(10, 0), at(0, 0), at(10, -1), seek(0, io.SeekStart), cl}},
	} {
		t.Run(c.name, func(t *testing.T) { matchOSFile(t, c.size, c.ops) })
	}
}

// FuzzReaderMatchesOSFile: every 4 bytes of ops are one call — its kind,
// buffer size, offset and whence — on a file of size bytes.
func FuzzReaderMatchesOSFile(f *testing.F) {
	f.Add(uint16(10), []byte{0, 4, 0, 0, 0, 4, 0, 0, 0, 4, 0, 0, 0, 4, 0, 0})
	f.Add(uint16(5000), []byte{1, 200, 10, 0, 1, 3, 255, 0, 2, 0, 1, 3, 0, 9, 0, 0, 3, 0, 0, 0, 1, 1, 0, 0})
	f.Add(uint16(0), []byte{2, 0, 0, 2, 2, 0, 3, 4, 0, 1, 0, 0, 1, 0, 128, 0})
	f.Fuzz(func(t *testing.T, size uint16, b []byte) {
		var ops []readerOp
		for ; len(b) >= 4 && len(ops) < 64; b = b[4:] {
			ops = append(ops, readerOp{
				kind:   "rasc"[b[0]%4],
				n:      int(b[1]) * 37,
				off:    int64(int8(b[2])) * 64,
				whence: int(b[3]%6) - 1,
			})
		}
		matchOSFile(t, int(size%10000), ops)
	})
}

// TestConcurrentWriteAt: four goroutines fill one staged file by
// interleaved WriteAt calls, as a parallel download does.
func TestConcurrentWriteAt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	f, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	const streams, blocks, block = 4, 64, 1000
	want := make([]byte, streams*blocks*block)
	for i := range want {
		want[i] = byte(i % 251)
	}
	var wg sync.WaitGroup
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for b := s; b < streams*blocks; b += streams {
				off := b * block
				if n, err := f.WriteAt(want[off:off+block], int64(off)); n != block || err != nil {
					t.Errorf("WriteAt at %d = %d, %v", off, n, err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	if err := f.Commit(); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
		t.Errorf("published %d bytes (%v), want the %d written", len(got), err, len(want))
	}
	if _, err := f.WriteAt([]byte("x"), 0); !errors.Is(err, os.ErrClosed) {
		t.Errorf("WriteAt after Commit = %v, want os.ErrClosed", err)
	}
	if _, err := f.Write([]byte("x")); !errors.Is(err, os.ErrClosed) {
		t.Errorf("Write after Commit = %v, want os.ErrClosed", err)
	}
}

// TestPathsRefusedWhole: a path holding a NUL, or too long for the
// kernel, is refused by Create, Open and Remove as the kernel (or
// package os) refuses it, and never cut short into a path that names
// another file. A path at Linux's limit, PATH_MAX (4096 bytes with its
// NUL), is taken whole.
func TestPathsRefusedWhole(t *testing.T) {
	const pathMax = 4096
	dir := t.TempDir() + string(os.PathSeparator)
	if err := os.WriteFile(dir+"f", []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Each name is "f" seen through a run of slashes: a path cut anywhere
	// would name dir, or f's prefix with the NUL dropped.
	slashes := func(total int) string { return strings.Repeat("/", total-len(dir)-1) + "f" }
	type refusal struct {
		name string
		want error // nil: the path is taken whole
	}
	cases := []refusal{{"f\x00", syscall.EINVAL}, {"f\x00g", syscall.EINVAL}}
	if runtime.GOOS == "linux" {
		cases = append(cases,
			refusal{slashes(pathMax), syscall.ENAMETOOLONG},
			refusal{slashes(pathMax + 100), syscall.ENAMETOOLONG},
			refusal{slashes(pathMax - 1), nil})
	}
	for _, c := range cases {
		label := fmt.Sprintf("%d-byte path", len(dir)+len(c.name))
		if c.want == syscall.EINVAL {
			label = fmt.Sprintf("%q", c.name)
		}
		r, err := Open(dir, c.name)
		if !errors.Is(err, c.want) && !(c.want == nil && err == nil) {
			t.Errorf("Open(%s) = %v, want %v", label, err, c.want)
		}
		if err == nil {
			b, _ := io.ReadAll(r)
			r.Close()
			if string(b) != "old" {
				t.Errorf("Open(%s) read %q", label, b)
			}
		}
		if c.want == nil {
			continue
		}
		if _, err := os.Open(dir + c.name); !errors.Is(err, c.want) {
			t.Errorf("os.Open(%s) = %v; the kernel's answer changed", label, err)
		}
		if err := Remove(dir, c.name); !errors.Is(err, c.want) {
			t.Errorf("Remove(%s) = %v, want %v", label, err, c.want)
		}
		if w, err := Create(dir + c.name); !errors.Is(err, c.want) {
			t.Errorf("Create(%s) = %v, want %v", label, err, c.want)
			if err == nil {
				w.Abort()
			}
		}
		if b, err := os.ReadFile(dir + "f"); err != nil || string(b) != "old" {
			t.Fatalf("after %s: f = %q, %v", label, b, err)
		}
		noTemps(t, dir)
	}
}

// TestAbortDuringWrites: an Abort that lands while writes are still
// being made (a timed-out download's last write) waits for the one in
// progress; every write after it returns os.ErrClosed, and the temp file
// is gone.
func TestAbortDuringWrites(t *testing.T) {
	dir := t.TempDir()
	f, err := Create(filepath.Join(dir, "f"))
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{}, 4)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			block := bytes.Repeat([]byte{byte(w)}, 512)
			for i := 0; ; i++ {
				_, err := f.WriteAt(block, int64(i%64)*512)
				if i == 0 {
					started <- struct{}{}
				}
				if errors.Is(err, os.ErrClosed) {
					return
				}
				if err != nil {
					t.Errorf("WriteAt: %v", err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 4; w++ {
		<-started
	}
	if err := f.Abort(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	noTemps(t, dir)
}

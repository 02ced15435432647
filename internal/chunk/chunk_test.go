package chunk

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"testing"

	"gosrb/internal/lend"
)

// sizes records the length of every Write it receives.
type sizes struct {
	n    []int
	data bytes.Buffer
}

func (s *sizes) Write(p []byte) (int, error) {
	s.n = append(s.n, len(p))
	return s.data.Write(p)
}

// trickle delivers at most n bytes per Read.
type trickle struct {
	r io.Reader
	n int
}

func (t trickle) Read(p []byte) (int, error) {
	if len(p) > t.n {
		p = p[:t.n]
	}
	return t.r.Read(p)
}

func payload(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i * 7)
	}
	return p
}

// TestCopyWritesFullChunks: however small the source's reads, the
// destination sees full chunks and one remainder — write sizes depend
// on the length alone.
func TestCopyWritesFullChunks(t *testing.T) {
	want := payload(2*Size + 123)
	var dst sizes
	n, err := Copy(&dst, trickle{r: bytes.NewBuffer(append([]byte(nil), want...)), n: 1001})
	if err != nil || n != int64(len(want)) {
		t.Fatalf("Copy = %d, %v", n, err)
	}
	if !bytes.Equal(dst.data.Bytes(), want) {
		t.Fatal("copy corrupted the stream")
	}
	if len(dst.n) != 3 || dst.n[0] != Size || dst.n[1] != Size || dst.n[2] != 123 {
		t.Errorf("write sizes = %v, want [%d %d 123]", dst.n, Size, Size)
	}
}

// TestCopyInMemorySourceIsOneWrite: a *bytes.Reader is handed over
// whole, with no pass through the pooled buffer.
func TestCopyInMemorySourceIsOneWrite(t *testing.T) {
	want := payload(3*Size + 1)
	var dst sizes
	if n, err := Copy(&dst, bytes.NewReader(want)); err != nil || n != int64(len(want)) {
		t.Fatalf("Copy = %d, %v", n, err)
	}
	if len(dst.n) != 1 || dst.n[0] != len(want) {
		t.Errorf("write sizes = %v, want one write of %d", dst.n, len(want))
	}
}

type failAfter struct {
	r   io.Reader
	n   int
	err error
}

func (f *failAfter) Read(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, f.err
	}
	if len(p) > f.n {
		p = p[:f.n]
	}
	n, err := f.r.Read(p)
	f.n -= n
	return n, err
}

// TestCopyReportsSourceError: bytes read before a source error are still
// written, and the error is the source's own.
func TestCopyReportsSourceError(t *testing.T) {
	boom := errors.New("boom")
	var dst sizes
	n, err := Copy(&dst, &failAfter{r: bytes.NewBuffer(payload(5000)), n: 1000, err: boom})
	if !errors.Is(err, boom) || n != 1000 || dst.data.Len() != 1000 {
		t.Errorf("Copy = %d, %v with %d bytes written; want 1000, boom", n, err, dst.data.Len())
	}
}

func TestSlicesReadsEndToEnd(t *testing.T) {
	s := Slices{[]byte("ab"), nil, []byte("cde"), {}, []byte("f")}
	got, err := io.ReadAll(trickle{r: &s, n: 2})
	if err != nil || string(got) != "abcdef" {
		t.Errorf("Slices read %q, %v", got, err)
	}
}

// TestSpool: a stream written in ragged pieces reads back at any offset
// and length, across chunk boundaries too; reading past Len is io.EOF;
// and once the pool is warm a write/read/release cycle takes no new
// chunk.
func TestSpool(t *testing.T) {
	want := payload(2*Size + 123)
	var s Spool
	fill := func() {
		src := want
		for i := 0; len(src) > 0; i++ {
			n := min([]int{1, 1001, Size - 1, 7, Size + 3}[i%5], len(src))
			if w, err := s.Write(src[:n]); w != n || err != nil {
				t.Fatalf("Write(%d) = %d, %v", n, w, err)
			}
			src = src[n:]
		}
	}
	fill()
	if s.Len() != int64(len(want)) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(want))
	}
	rng := rand.New(rand.NewSource(1))
	cases := [][2]int{{0, len(want)}, {Size - 5, 10}, {Size, Size}, {2*Size - 1, 2}}
	for i := 0; i < 200; i++ {
		off := rng.Intn(len(want))
		cases = append(cases, [2]int{off, rng.Intn(len(want) - off + 1)})
	}
	for _, c := range cases {
		off, n := c[0], c[1]
		p := make([]byte, n)
		if got, err := s.ReadAt(p, int64(off)); got != n || err != nil {
			t.Fatalf("ReadAt(%d bytes at %d) = %d, %v", n, off, got, err)
		}
		if !bytes.Equal(p, want[off:off+n]) {
			t.Fatalf("ReadAt(%d bytes at %d) read the wrong bytes", n, off)
		}
	}
	p := make([]byte, 10)
	if n, err := s.ReadAt(p, int64(len(want))-4); n != 4 || err != io.EOF || !bytes.Equal(p[:4], want[len(want)-4:]) {
		t.Errorf("ReadAt across Len = %d, %v; want the last 4 bytes and io.EOF", n, err)
	}
	if n, err := s.ReadAt(p, int64(len(want))+1); n != 0 || err != io.EOF {
		t.Errorf("ReadAt past Len = %d, %v; want 0, io.EOF", n, err)
	}
	s.Release()
	if s.Len() != 0 {
		t.Errorf("Len after Release = %d, want 0", s.Len())
	}

	// Under framecanary the pool keeps nothing (lend.Recycle).
	if raceEnabled || lend.Canary {
		return
	}
	cycle := func() {
		fill()
		if _, err := s.ReadAt(p, Size-5); err != nil {
			t.Fatal(err)
		}
		s.Release()
	}
	// A GC no longer empties the pool (lend.Pool), so one inside the
	// loop costs nothing.
	runtime.GC()
	cycle() // warm the pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 20; i++ {
		cycle()
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= Size {
		t.Errorf("%d bytes allocated over 20 warm cycles, want less than one chunk", grew)
	}
}

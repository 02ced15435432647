package chunk

import (
	"bytes"
	"errors"
	"io"
	"testing"
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

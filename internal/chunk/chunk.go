// Package chunk is the one copy primitive of the data path: every hop
// that moves object bytes — storage driver to socket, socket to storage
// drivers, driver to driver — moves them through a Size-byte buffer
// borrowed from one pool, so no hop's memory grows with the object.
package chunk

import (
	"bytes"
	"errors"
	"io"

	"gosrb/internal/lend"
)

// Size is the buffer size, and therefore the wire's Data frame payload
// (wire.DataChunk) and the largest single driver read or write a
// streamed transfer issues.
const Size = 256 * 1024

// pool lends the chunks: one is in flight per stream being copied, and
// a spool holds one per Size bytes it holds.
var pool = lend.NewPool(16, func() *[]byte { b := make([]byte, Size); return &b })

// Get borrows a Size-byte buffer. The borrower owns it until Put and
// must not retain any slice of it afterwards.
func Get() *[]byte { return pool.Get() }

// Put returns a buffer obtained from Get.
func Put(b *[]byte) { pool.Put(b) }

// Copy moves src to dst until EOF through one pooled buffer and returns
// the bytes written. The loop is explicit on purpose: io.Copy defers to
// a ReaderFrom or WriterTo on either side, and *os.File implements both
// — falling back to a fresh 32 KiB buffer per call whenever its peer is
// not a raw socket, which is every driver-to-driver and wrapped-conn
// copy here.
//
// Each write but the last is a full Size bytes, however the source
// fragments its reads (a socket delivers what has arrived): the frames
// relayed to a peer and the writes issued to a driver are then a
// function of the object's length alone, not of network timing.
//
// An in-memory source is the exception: a *bytes.Reader hands its
// remaining slice to dst in one Write, with no intermediate copy at all.
func Copy(dst io.Writer, src io.Reader) (int64, error) {
	if br, ok := src.(*bytes.Reader); ok {
		return br.WriteTo(dst)
	}
	bp := Get()
	defer Put(bp)
	buf := *bp
	var total int64
	for {
		n := 0
		var rerr error
		for n < len(buf) && rerr == nil {
			var m int
			m, rerr = src.Read(buf[n:])
			n += m
		}
		if n > 0 {
			w, werr := dst.Write(buf[:n])
			total += int64(w)
			if werr != nil {
				return total, werr
			}
			if w < n {
				return total, io.ErrShortWrite
			}
		}
		if rerr == io.EOF {
			return total, nil
		}
		if rerr != nil {
			return total, rerr
		}
	}
}

// Slices reads a list of byte slices end to end, so a batch of in-memory
// items is framed (or stored) through the pooled chunk without first
// being concatenated.
type Slices [][]byte

func (r *Slices) Read(p []byte) (int, error) {
	for len(*r) > 0 && len((*r)[0]) == 0 {
		*r = (*r)[1:]
	}
	if len(*r) == 0 {
		return 0, io.EOF
	}
	n := copy(p, (*r)[0])
	(*r)[0] = (*r)[0][n:]
	return n, nil
}

// Spool holds a stream in chunks borrowed from the pool: Write appends,
// taking a new chunk only when the last one is full, so its memory
// follows the bytes that arrive and no announced length sizes it. The
// zero value is empty and ready to use.
//
// Only the code that took a spool may Release it, and only once nothing
// can still write into it: a chunk put back under a running Write would
// land in another borrower's hands. A spool nobody can vouch for is
// dropped to the GC instead.
type Spool struct {
	bufs []*[]byte
	n    int64
}

// Write appends p.
func (s *Spool) Write(p []byte) (int, error) {
	w := len(p)
	for len(p) > 0 {
		if s.n == int64(len(s.bufs))*Size {
			s.bufs = append(s.bufs, Get())
		}
		c := copy((*s.bufs[len(s.bufs)-1])[s.n%Size:], p)
		p = p[c:]
		s.n += int64(c)
	}
	return w, nil
}

// ReadAt reads len(p) bytes from off, or what there is before Len with
// io.EOF.
func (s *Spool) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, errors.New("chunk: negative spool offset")
	}
	n := 0
	for n < len(p) && off < s.n {
		end := min(Size, s.n-off/Size*Size)
		c := copy(p[n:], (*s.bufs[off/Size])[off%Size:end])
		n += c
		off += int64(c)
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Len returns the bytes written.
func (s *Spool) Len() int64 { return s.n }

// Release returns the chunks to the pool and empties the spool.
func (s *Spool) Release() {
	for _, b := range s.bufs {
		Put(b)
	}
	s.bufs, s.n = s.bufs[:0], 0
}

// Package chunk is the one copy primitive of the data path: every hop
// that moves object bytes — storage driver to socket, socket to storage
// drivers, driver to driver — moves them through a Size-byte buffer
// borrowed from one pool, so no hop's memory grows with the object.
package chunk

import (
	"bytes"
	"io"
	"sync"
)

// Size is the buffer size, and therefore the wire's Data frame payload
// (wire.DataChunk) and the largest single driver read or write a
// streamed transfer issues.
const Size = 256 * 1024

var pool = sync.Pool{New: func() any { b := make([]byte, Size); return &b }}

// Get borrows a Size-byte buffer. The borrower owns it until Put and
// must not retain any slice of it afterwards.
func Get() *[]byte { return pool.Get().(*[]byte) }

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

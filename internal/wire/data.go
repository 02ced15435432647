// Bulk data: a Data…DataEnd frame sequence moved without ever holding
// more than one chunk of it. Outbound, SendData copies a reader into
// frames through a pooled chunk (an in-memory source is framed in place,
// with no copy). Inbound, a DataReader fills the caller's buffer
// straight from the transport, frame headers stripped, so a handler
// streams its request body and a Buffer receives a reply at its
// announced size with exactly one allocation.
package wire

import (
	"encoding/json"
	"fmt"
	"io"

	"gosrb/internal/chunk"
	"gosrb/internal/types"
)

// dataWriter frames whatever is written to it as Data frames of at most
// DataChunk bytes.
type dataWriter Conn

func (w *dataWriter) Write(p []byte) (int, error) {
	c := (*Conn)(w)
	sent := 0
	for len(p) > 0 {
		n := len(p)
		if n > DataChunk {
			n = DataChunk
		}
		if err := c.WriteMsg(MsgData, p[:n]); err != nil {
			return sent, err
		}
		sent += n
		p = p[n:]
	}
	return sent, nil
}

// DataWriter returns the writer half of an outbound data stream: each
// Write becomes Data frames. The caller ends the stream with a
// MsgDataEnd frame.
func (c *Conn) DataWriter() io.Writer { return (*dataWriter)(c) }

// SendData streams r as Data frames followed by DataEnd.
func (c *Conn) SendData(r io.Reader) error {
	_, err := c.sendData(r)
	return err
}

// sendData is SendData reporting the payload bytes sent.
func (c *Conn) sendData(r io.Reader) (int64, error) {
	n, err := chunk.Copy(c.DataWriter(), r)
	if err != nil {
		return n, err
	}
	return n, c.WriteMsg(MsgDataEnd, nil)
}

// DataReader is the reader half of one inbound data stream. Read fills
// the caller's buffer directly from the transport and reports io.EOF at
// the DataEnd frame. It belongs to the Conn's reading goroutine, or to
// whoever that goroutine hands it to while it waits.
type DataReader struct {
	c    *Conn
	left int   // unread payload bytes of the current Data frame
	n    int64 // payload bytes delivered so far
	done bool  // DataEnd consumed
}

// OpenData starts reading the data stream that follows the frame just
// read. The returned reader is valid until the next OpenData.
func (c *Conn) OpenData() *DataReader {
	c.in = DataReader{c: c}
	return &c.in
}

// N returns the payload bytes read so far.
func (d *DataReader) N() int64 { return d.n }

// next advances to a frame with payload pending; io.EOF at DataEnd.
func (d *DataReader) next() error {
	for d.left == 0 {
		if d.done {
			return io.EOF
		}
		t, n, err := d.c.readHeader()
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // a stream ends at DataEnd, never at close
			}
			return err
		}
		switch t {
		case MsgData:
			d.left = n
		case MsgDataEnd:
			d.done = true
			if n > 0 {
				// A DataEnd payload carries nothing; skip it to stay framed.
				d.left = n
				if err := d.discardFrame(); err != nil {
					return err
				}
			}
			return io.EOF
		default:
			return fmt.Errorf("wire: unexpected frame %d in data stream: %w", t, types.ErrInvalid)
		}
	}
	return nil
}

func (d *DataReader) discardFrame() error {
	bp := chunk.Get()
	defer chunk.Put(bp)
	for d.left > 0 {
		buf := *bp
		if d.left < len(buf) {
			buf = buf[:d.left]
		}
		n, err := io.ReadFull(d.c.rw, buf)
		d.left -= n
		if err != nil {
			return unexpectedEOF(err)
		}
	}
	return nil
}

func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

func (d *DataReader) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if err := d.next(); err != nil {
		return 0, err
	}
	if len(p) > d.left {
		p = p[:d.left]
	}
	n, err := d.c.rw.Read(p)
	d.left -= n
	d.n += int64(n)
	if err != nil && n == 0 {
		return 0, unexpectedEOF(err)
	}
	return n, nil
}

// Drain discards whatever remains of the stream, leaving the Conn at the
// frame after DataEnd. A handler that rejects its request before (or
// part-way through) reading the body relies on this to keep the
// connection framed.
func (d *DataReader) Drain() error {
	_, err := chunk.Copy(io.Discard, d)
	return err
}

// RecvData moves one inbound data stream into w and returns the byte
// count. A *Buffer is filled in place; any other writer is fed through a
// pooled chunk.
func (c *Conn) RecvData(w io.Writer) (int64, error) {
	d := c.OpenData()
	if b, ok := w.(*Buffer); ok {
		err := b.fill(d)
		return d.n, err
	}
	return chunk.Copy(w, d)
}

// Buffer is an in-memory destination for a data stream. Presized with
// Grow from a length the sender announced, it receives the whole stream
// in one allocation and no copy; unsized, its capacity follows the bytes
// that have actually arrived, so a sender cannot make it allocate ahead
// of what it sends.
type Buffer struct {
	b []byte
}

// maxPresize bounds how far Grow trusts an announced length: beyond it
// the buffer grows as bytes arrive, so a peer announcing an absurd size
// costs nothing until it actually sends that much.
const maxPresize = 1 << 30

// Grow makes room for n more bytes. Only a client presizes, from the
// length its server announced; a server never does from a client's.
func (b *Buffer) Grow(n int64) {
	if n > maxPresize {
		n = maxPresize
	}
	if n <= 0 || int64(cap(b.b)-len(b.b)) >= n {
		return
	}
	nb := make([]byte, len(b.b), int64(len(b.b))+n)
	copy(nb, b.b)
	b.b = nb
}

// NewSizedBuffer returns a Buffer presized from body, the wire.SizeReply
// with which a reply announces its stream's length.
func NewSizedBuffer(body json.RawMessage) (*Buffer, error) {
	var sz SizeReply
	if err := json.Unmarshal(body, &sz); err != nil {
		return nil, err
	}
	b := new(Buffer)
	b.Grow(sz.Size)
	return b, nil
}

// Bytes returns the bytes received.
func (b *Buffer) Bytes() []byte { return b.b }

// Write appends p.
func (b *Buffer) Write(p []byte) (int, error) {
	b.b = append(b.b, p...)
	return len(p), nil
}

// fill reads d to its end straight into the buffer's spare capacity.
func (b *Buffer) fill(d *DataReader) error {
	for {
		if err := d.next(); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		if len(b.b) == cap(b.b) {
			// Grow by doubling, but never more than one chunk beyond what
			// this frame still owes us: capacity tracks bytes received.
			want := d.left
			if want > DataChunk {
				want = DataChunk
			}
			if want < len(b.b) {
				want = len(b.b)
			}
			b.Grow(int64(want))
		}
		dst := b.b[len(b.b):cap(b.b)]
		if len(dst) > d.left {
			dst = dst[:d.left]
		}
		n, err := io.ReadFull(d.c.rw, dst)
		b.b = b.b[:len(b.b)+n]
		d.left -= n
		d.n += int64(n)
		if err != nil {
			return unexpectedEOF(err)
		}
	}
}

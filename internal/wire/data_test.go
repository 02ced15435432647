// The data path's allocation fences and framing invariants. The
// streaming path exists so that moving an object costs no memory
// proportional to it: SendData and RecvData must reuse pooled chunks (or
// frame an in-memory source in place), a presized Buffer must take a
// reply in its one allocation, and a DataReader must hand its caller
// exactly the payload bytes however the transport fragments them.
package wire

import (
	"bytes"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
)

// pattern fills n bytes that differ at every chunk-relative position a
// misplaced or duplicated chunk could land on.
func pattern(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*131 + i>>8)
	}
	return p
}

// notBytesReader hides a *bytes.Reader's type so SendData takes the
// pooled-chunk loop instead of framing the slice in place.
type notBytesReader struct{ r *bytes.Reader }

func (n notBytesReader) Read(p []byte) (int, error) { return n.r.Read(p) }

// TestSendRecvAllocFence: after warm-up, one SendData + RecvData round
// trip over net.Pipe allocates nothing — no chunk, no payload, no frame
// header — at 4 KiB and at 1 MiB, from an in-memory source and from an
// opaque reader, into a discarding writer and into a presized Buffer.
func TestSendRecvAllocFence(t *testing.T) {
	// The chunk pool keeps a buffer per P; pin to one (as AllocsPerRun
	// does for its own runs) so the warm-up warms the P that is measured.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, size := range []int{4 << 10, 1 << 20} {
		payload := pattern(size)
		a, b := net.Pipe()
		ca, cb := NewConn(a), NewConn(b)

		var (
			src    = bytes.NewReader(payload)
			opaque = notBytesReader{r: src}
			dst    Buffer
			toBuf  bool
			viaBuf bool // send through the pooled chunk, not in place
			go_    = make(chan struct{})
			done   = make(chan error)
			stop   = make(chan struct{})
			wg     sync.WaitGroup
		)
		dst.Grow(int64(size))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				case <-go_:
				}
				var err error
				if toBuf {
					dst.b = dst.b[:0]
					_, err = cb.RecvData(&dst)
				} else {
					_, err = cb.RecvData(io.Discard)
				}
				done <- err
			}
		}()
		round := func() {
			src.Reset(payload)
			go_ <- struct{}{}
			var err error
			if viaBuf {
				err = ca.SendData(opaque)
			} else {
				err = ca.SendData(src)
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
		for _, mode := range []struct {
			name          string
			toBuf, viaBuf bool
		}{
			{"in-place to discard", false, false},
			{"chunked to discard", false, true},
			{"in-place to presized buffer", true, false},
			{"chunked to presized buffer", true, true},
		} {
			toBuf, viaBuf = mode.toBuf, mode.viaBuf
			round() // warm the chunk pool
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			allocs := testing.AllocsPerRun(20, round)
			runtime.ReadMemStats(&after)
			if mode.toBuf && !bytes.Equal(dst.Bytes(), payload) {
				t.Errorf("%d bytes, %s: buffer holds the wrong bytes", size, mode.name)
			}
			if raceEnabled {
				continue
			}
			if allocs != 0 {
				t.Errorf("%d bytes, %s: %.1f allocs per round trip, want 0", size, mode.name, allocs)
			}
			// AllocsPerRun counts objects; a pooled chunk evicted by a GC and
			// reallocated would be one object of 256 KiB. 21 round trips
			// must not have allocated even one.
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= DataChunk {
				t.Errorf("%d bytes, %s: %d bytes allocated over 21 round trips", size, mode.name, grew)
			}
		}
		close(stop)
		wg.Wait()
		a.Close()
		b.Close()
	}
}

// dribble delivers at most n bytes per Read, the way a congested socket
// fragments a frame.
type dribble struct {
	r io.Reader
	n int
}

func (d *dribble) Read(p []byte) (int, error) {
	if len(p) > d.n {
		p = p[:d.n]
	}
	return d.r.Read(p)
}

// TestDataReaderFragmentedTransport: frames cut into 7-byte reads, with
// payload lengths straddling the chunk size and an oversized (but legal)
// frame, still come out as exactly the payload, and the stream ends at
// DataEnd with the connection positioned on the next frame.
func TestDataReaderFragmentedTransport(t *testing.T) {
	var wire bytes.Buffer
	w := NewConn(&wire)
	var want []byte
	for _, n := range []int{1, DataChunk - 1, DataChunk, DataChunk + 1, 3*DataChunk + 5} {
		p := pattern(n)
		// One frame per piece, whatever its size: a peer may legally frame
		// up to MaxFrame.
		if err := w.WriteMsg(MsgData, p); err != nil {
			t.Fatal(err)
		}
		want = append(want, p...)
	}
	if err := w.WriteMsg(MsgData, nil); err != nil { // empty frame mid-stream
		t.Fatal(err)
	}
	if err := w.WriteMsg(MsgDataEnd, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRequest(&Request{Op: OpStat}); err != nil {
		t.Fatal(err)
	}

	r := NewConn(&duplex{r: &dribble{r: &wire, n: 7}, w: io.Discard})
	var got Buffer
	n, err := r.RecvData(&got)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(want)) || !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("received %d bytes (want %d), equal=%v", n, len(want), bytes.Equal(got.Bytes(), want))
	}
	var req Request
	if err := r.ReadRequest(&req); err != nil || req.Op != OpStat {
		t.Fatalf("frame after the stream = %+v, %v", req, err)
	}
}

// TestDataReaderDrain: a reader abandoned part-way (a handler that
// rejects its request) drains to DataEnd and leaves the framing healthy.
func TestDataReaderDrain(t *testing.T) {
	var wire bytes.Buffer
	w := NewConn(&wire)
	if err := w.SendData(bytes.NewReader(pattern(2*DataChunk + 99))); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRequest(&Request{Op: OpStat}); err != nil {
		t.Fatal(err)
	}
	r := NewConn(&wire)
	d := r.OpenData()
	head := make([]byte, 10)
	if _, err := io.ReadFull(d, head); err != nil {
		t.Fatal(err)
	}
	if err := d.Drain(); err != nil {
		t.Fatal(err)
	}
	if d.N() != int64(2*DataChunk+99) {
		t.Errorf("N after drain = %d", d.N())
	}
	if n, err := d.Read(head); n != 0 || err != io.EOF {
		t.Errorf("read after drain = %d, %v", n, err)
	}
	var req Request
	if err := r.ReadRequest(&req); err != nil || req.Op != OpStat {
		t.Fatalf("frame after the drained stream = %+v, %v", req, err)
	}
}

// TestDataStreamTruncated: a connection that closes inside a stream is
// an error, never a clean end of data.
func TestDataStreamTruncated(t *testing.T) {
	var wire bytes.Buffer
	if err := NewConn(&wire).WriteMsg(MsgData, pattern(1000)); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{wire.Len(), wire.Len() - 1, 5, 3} {
		raw := wire.Bytes()[:cut]
		if _, err := NewConn(bytes.NewBuffer(raw)).RecvData(io.Discard); err != io.ErrUnexpectedEOF {
			t.Errorf("stream cut at %d bytes: err = %v, want unexpected EOF", cut, err)
		}
		var b Buffer
		if _, err := NewConn(bytes.NewBuffer(raw)).RecvData(&b); err != io.ErrUnexpectedEOF {
			t.Errorf("stream cut at %d bytes into Buffer: err = %v, want unexpected EOF", cut, err)
		}
	}
}

// TestBufferUnsizedTracksBytesReceived: a Buffer nobody presized grows
// with what arrives, not with what a frame header declares — the
// server-side bound FuzzDecodeFrame states for control frames, kept for
// data.
func TestBufferUnsizedTracksBytesReceived(t *testing.T) {
	// A forged Data header declaring 16 MiB - 1, followed by 10 bytes.
	raw := append([]byte{byte(MsgData), 0x00, 0xff, 0xff, 0xff}, pattern(10)...)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var b Buffer
	_, err := NewConn(bytes.NewBuffer(raw)).RecvData(&b)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated stream received without error")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 2*DataChunk {
		t.Fatalf("15 forged bytes allocated %d bytes", grew)
	}
}

// TestSendDataFrameSizes: a stream is framed in full chunks whatever the
// source's read sizes, so the bytes on the wire are a function of the
// payload length alone.
func TestSendDataFrameSizes(t *testing.T) {
	payload := pattern(2*DataChunk + 4321)
	frames := func(src io.Reader) []int {
		var wire bytes.Buffer
		if err := NewConn(&wire).SendData(src); err != nil {
			t.Fatal(err)
		}
		r := NewConn(&wire)
		var sizes []int
		for {
			ty, p, err := r.ReadMsg()
			if err != nil {
				t.Fatal(err)
			}
			if ty == MsgDataEnd {
				return sizes
			}
			sizes = append(sizes, len(p))
		}
	}
	want := []int{DataChunk, DataChunk, 4321}
	for name, src := range map[string]io.Reader{
		"in-memory": bytes.NewReader(payload),
		"dribbled":  &dribble{r: bytes.NewReader(payload), n: 1000},
	} {
		got := frames(src)
		if len(got) != len(want) {
			t.Errorf("%s source framed as %v, want %v", name, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s source framed as %v, want %v", name, got, want)
				break
			}
		}
	}
}

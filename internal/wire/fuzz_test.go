// Frame-codec fuzzing. The wire protocol's first defense is the frame
// reader: it sees attacker-controlled bytes before any authentication
// completes, so it must never panic and never let a forged header pin
// memory the peer didn't actually send (5 bytes declaring a 16 MiB
// frame must not cost 16 MiB).
package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// FuzzFrameRoundTrip checks WriteMsg/ReadMsg are inverses for any type
// byte and payload that fit in a frame.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint8(MsgRequest), appendRequest(nil, &Request{ID: 1, Op: OpStat}))
	f.Add(uint8(MsgData), []byte{})
	f.Add(uint8(MsgDataEnd), []byte("x"))
	f.Add(uint8(0xff), bytes.Repeat([]byte{0xa5}, 3000))
	f.Fuzz(func(t *testing.T, ty uint8, payload []byte) {
		var buf bytes.Buffer
		c := NewConn(&buf)
		err := c.WriteMsg(MsgType(ty), payload)
		if len(payload) > MaxFrame {
			if err == nil {
				t.Fatal("oversize write accepted")
			}
			return
		}
		if err != nil {
			t.Fatalf("write: %v", err)
		}
		rt, got, err := c.ReadMsg()
		if err != nil {
			t.Fatalf("read back: %v", err)
		}
		if rt != MsgType(ty) {
			t.Fatalf("type %d round-tripped as %d", ty, rt)
		}
		if !bytes.Equal(*got, payload) {
			t.Fatalf("payload %d bytes round-tripped as %d bytes", len(payload), len(*got))
		}
	})
}

// FuzzDecodeFrame feeds arbitrary bytes to the frame reader. Two
// invariants: no panic, and allocation stays proportional to the bytes
// actually provided — not to the length a forged header declares.
func FuzzDecodeFrame(f *testing.F) {
	valid := func(t MsgType, payload []byte) []byte {
		var buf bytes.Buffer
		if err := NewConn(&buf).WriteMsg(t, payload); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(valid(MsgRequest, appendRequest(nil, &Request{ID: 1, Op: OpStat})))
	// A request with the ID no Mux assigns: servers refuse it.
	f.Add(valid(MsgRequest, appendRequest(nil, &Request{Op: OpStat})))
	f.Add(valid(MsgData, bytes.Repeat([]byte{1}, 70*1024)))
	// Forged header: declares MaxFrame-1 bytes, delivers none (or one).
	f.Add([]byte{byte(MsgResponse), 0x00, 0xff, 0xff, 0xff})
	f.Add([]byte{byte(MsgData), 0x00, 0xff, 0xff, 0xff, 'x'})
	// Oversize declaration: must be rejected outright.
	f.Add([]byte{byte(MsgData), 0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		c := NewConn(bytes.NewBuffer(raw))
		for {
			if _, _, err := c.ReadMsg(); err != nil {
				break
			}
		}
		runtime.ReadMemStats(&after)
		// Stepwise growth allows transient doubling copies, so the honest
		// bound is a small multiple of the input plus one alloc step (with
		// slack for runtime noise) — a declared-length allocation of MiB
		// from a few header bytes blows straight through it.
		grew := after.TotalAlloc - before.TotalAlloc
		limit := 4*uint64(len(raw)) + 8*maxPooled
		if grew > limit {
			t.Fatalf("decoding %d input bytes allocated %d bytes (limit %d)", len(raw), grew, limit)
		}
	})
}

// allocBound is what decoding n input bytes may allocate: a small multiple
// of n plus slack for the runtime. The multiple leaves room over the
// costliest element per encoded byte, a reply hit's column: one byte for a
// 24-byte slot in its reply's slab; every element stays under 40 bytes per
// byte. A length believed ahead of the bytes that back it costs far more
// than this from a few input bytes.
func allocBound(n int) uint64 { return 128*uint64(n) + 16<<10 }

// allocated runs fn and returns the bytes it allocated.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzDecodeRequest feeds arbitrary payloads to the envelope decoders:
// no panic, allocation bounded by the input, and a request that decodes
// decodes to itself again once re-encoded.
func FuzzDecodeRequest(f *testing.F) {
	args, _ := AppendBody(nil, &PathArgs{Path: "/home/a"})
	f.Add(appendRequest(nil, &Request{ID: 1, Op: OpStat, Trace: 0x0123456789abcdef, Span: 1, Args: args}))
	f.Add(appendRequest(nil, &Request{ID: 2, Op: "frobnicate", OnBehalf: "alice", TimeoutMillis: 5}))
	f.Add(appendResponse(nil, &Response{ID: 3, OK: true, DataFollows: true, Body: args}))
	f.Add(appendResponse(nil, &Response{ID: 4, ErrKind: "notfound", ErrMsg: "gone"}))
	f.Add(appendRedirect(nil, &Redirect{ID: 5, Server: "srb2", Addr: "h:1"}))
	// A string length far past the bytes that follow.
	f.Add([]byte{1, 0xff, 0xff, 0xff, 0x07, 's'})
	f.Fuzz(func(t *testing.T, raw []byte) {
		var req Request
		var err error
		if grew := allocated(func() { err = DecodeRequest(raw, &req) }); grew > allocBound(len(raw)) {
			t.Fatalf("decoding a %d-byte request allocated %d bytes", len(raw), grew)
		}
		if err == nil {
			var again Request
			if err := DecodeRequest(appendRequest(nil, &req), &again); err != nil || !reflect.DeepEqual(again, req) {
				t.Fatalf("request %+v re-encoded decodes as %+v, %v", req, again, err)
			}
		}
		if grew := allocated(func() {
			DecodeResponse(raw, new(Response))
			DecodeRedirect(raw, new(Redirect))
		}); grew > 2*allocBound(len(raw)) {
			t.Fatalf("decoding a %d-byte response and redirect allocated %d bytes", len(raw), grew)
		}
	})
}

// FuzzDecodeBody feeds arbitrary bodies to the decoder of every hot type,
// as args and as a reply: no panic, and no decoder allocates beyond the
// bytes it was given.
func FuzzDecodeBody(f *testing.F) {
	r := rand.New(rand.NewSource(1))
	for _, h := range hotTypes {
		f.Add(h.sample(r))
	}
	// A list length far past the bytes that follow.
	f.Add([]byte{tagStats, 0xff, 0xff, 0xff, 0x7f, 0})
	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, h := range hotTypes {
			if grew := allocated(func() { h.decode(raw) }); grew > allocBound(len(raw)) {
				t.Fatalf("decoding the %d-byte body %x allocated %d bytes", len(raw), raw, grew)
			}
		}
	})
}

// TestReadMsgForgedLength is the deterministic regression for the
// over-allocation bug the fuzzer targets: before readPayload's stepwise
// growth, these 5 bytes allocated ~16 MiB up front.
func TestReadMsgForgedLength(t *testing.T) {
	hdr := []byte{byte(MsgResponse), 0x00, 0xff, 0xff, 0xff} // declares 16 MiB - 1
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, _, err := NewConn(bytes.NewBuffer(hdr)).ReadMsg()
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated frame read succeeded")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*maxPooled {
		t.Fatalf("5 forged header bytes allocated %d bytes", grew)
	}
}

// TestReadMsgLargeFrameIntact makes sure the stepwise reader still
// hands back big legitimate frames byte-for-byte (the doubling loop's
// boundary arithmetic is exactly the kind of code that truncates).
func TestReadMsgLargeFrameIntact(t *testing.T) {
	for _, n := range []int{0, 1, maxPooled - 1, maxPooled, maxPooled + 1,
		3 * maxPooled, 2*maxPooled + 37, DataChunk, DataChunk + 1} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i * 31)
		}
		var buf bytes.Buffer
		if err := NewConn(&buf).WriteMsg(MsgData, payload); err != nil {
			t.Fatalf("n=%d write: %v", n, err)
		}
		ty, got, err := NewConn(&buf).ReadMsg()
		if err != nil {
			t.Fatalf("n=%d read: %v", n, err)
		}
		if ty != MsgData || !bytes.Equal(*got, payload) {
			t.Fatalf("n=%d round trip corrupted (got %d bytes)", n, len(*got))
		}
	}
}

// Frame-codec fuzzing. The wire protocol's first defense is the frame
// reader: it sees attacker-controlled bytes before any authentication
// completes, so it must never panic and never let a forged header pin
// memory the peer didn't actually send (5 bytes declaring a 16 MiB
// frame must not cost 16 MiB).
package wire

import (
	"bytes"
	"runtime"
	"testing"
)

// FuzzFrameRoundTrip checks WriteMsg/ReadMsg are inverses for any type
// byte and payload that fit in a frame.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add(uint8(MsgRequest), []byte(`{"Op":"stat"}`))
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
		if !bytes.Equal(got, payload) {
			t.Fatalf("payload %d bytes round-tripped as %d bytes", len(payload), len(got))
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
	f.Add(valid(MsgRequest, []byte(`{"Op":"stat"}`)))
	// A request that spells out the ID no Mux assigns: servers refuse it.
	f.Add(valid(MsgRequest, []byte(`{"ID":0,"Op":"stat"}`)))
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
		limit := 4*uint64(len(raw)) + 8*readAllocStep
		if grew > limit {
			t.Fatalf("decoding %d input bytes allocated %d bytes (limit %d)", len(raw), grew, limit)
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
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*readAllocStep {
		t.Fatalf("5 forged header bytes allocated %d bytes", grew)
	}
}

// TestReadMsgLargeFrameIntact makes sure the stepwise reader still
// hands back big legitimate frames byte-for-byte (the doubling loop's
// boundary arithmetic is exactly the kind of code that truncates).
func TestReadMsgLargeFrameIntact(t *testing.T) {
	for _, n := range []int{0, 1, readAllocStep - 1, readAllocStep, readAllocStep + 1,
		3 * readAllocStep, 2*readAllocStep + 37, DataChunk, DataChunk + 1} {
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
		if ty != MsgData || !bytes.Equal(got, payload) {
			t.Fatalf("n=%d round trip corrupted (got %d bytes)", n, len(got))
		}
	}
}

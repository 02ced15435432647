package wire

import (
	"bytes"
	"errors"
	"io"
	"net"
	"testing"
	"testing/quick"
	"time"

	"gosrb/internal/auth"
	"gosrb/internal/types"
)

// pipeConn is an in-memory bidirectional transport for tests.
func pipeConn() (*Conn, *Conn) {
	a2b := &blockingBuffer{ch: make(chan []byte, 64)}
	b2a := &blockingBuffer{ch: make(chan []byte, 64)}
	a := NewConn(&duplex{r: b2a, w: a2b})
	b := NewConn(&duplex{r: a2b, w: b2a})
	return a, b
}

type duplex struct {
	r io.Reader
	w io.Writer
}

func (d *duplex) Read(p []byte) (int, error)  { return d.r.Read(p) }
func (d *duplex) Write(p []byte) (int, error) { return d.w.Write(p) }

// blockingBuffer delivers writes to readers through a channel.
type blockingBuffer struct {
	ch  chan []byte
	cur []byte
}

func (b *blockingBuffer) Write(p []byte) (int, error) {
	cp := append([]byte(nil), p...)
	b.ch <- cp
	return len(p), nil
}

func (b *blockingBuffer) Read(p []byte) (int, error) {
	if len(b.cur) == 0 {
		chunk, ok := <-b.ch
		if !ok {
			return 0, io.EOF
		}
		b.cur = chunk
	}
	n := copy(p, b.cur)
	b.cur = b.cur[n:]
	return n, nil
}

func TestFrameRoundTrip(t *testing.T) {
	a, b := pipeConn()
	go func() {
		a.WriteMsg(MsgRequest, []byte("payload"))
	}()
	typ, payload, err := b.ReadMsg()
	if err != nil || typ != MsgRequest || string(payload) != "payload" {
		t.Errorf("frame = %d %q %v", typ, payload, err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	a, b := pipeConn()
	go a.WriteJSON(MsgChallenge, Challenge{Server: "srb1", Nonce: "abc"})
	var ch Challenge
	if err := b.ReadJSON(MsgChallenge, &ch); err != nil || ch.Server != "srb1" || ch.Nonce != "abc" {
		t.Errorf("challenge = %+v, %v", ch, err)
	}
	// Wrong expected type errors.
	go a.WriteJSON(MsgAuth, Auth{User: "u"})
	if err := b.ReadJSON(MsgChallenge, &ch); !errors.Is(err, types.ErrInvalid) {
		t.Errorf("type mismatch = %v", err)
	}
}

func TestDataStream(t *testing.T) {
	a, b := pipeConn()
	payload := make([]byte, DataChunk*3+100) // multiple chunks
	for i := range payload {
		payload[i] = byte(i)
	}
	go func() {
		if err := a.SendData(bytes.NewReader(payload)); err != nil {
			t.Error(err)
		}
	}()
	var buf bytes.Buffer
	n, err := b.RecvData(&buf)
	if err != nil || n != int64(len(payload)) {
		t.Fatalf("RecvData = %d, %v", n, err)
	}
	if !bytes.Equal(buf.Bytes(), payload) {
		t.Error("data corrupted")
	}
}

func TestEmptyDataStream(t *testing.T) {
	a, b := pipeConn()
	go a.SendData(bytes.NewReader(nil))
	var buf bytes.Buffer
	n, err := b.RecvData(&buf)
	if err != nil || n != 0 {
		t.Errorf("empty stream = %d, %v", n, err)
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	var sink bytes.Buffer
	c := NewConn(&sink)
	if err := c.WriteMsg(MsgData, make([]byte, MaxFrame+1)); !errors.Is(err, types.ErrInvalid) {
		t.Errorf("oversize write = %v", err)
	}
	// A forged oversize header is rejected on read.
	var buf bytes.Buffer
	buf.Write([]byte{byte(MsgData), 0xFF, 0xFF, 0xFF, 0xFF})
	r := NewConn(&buf)
	if _, _, err := r.ReadMsg(); !errors.Is(err, types.ErrInvalid) {
		t.Errorf("oversize read = %v", err)
	}
}

func TestErrKindRoundTrip(t *testing.T) {
	for _, sentinel := range []error{
		types.ErrNotFound, types.ErrExists, types.ErrPermission,
		types.ErrLocked, types.ErrOffline, types.ErrInvalid,
		types.ErrNotEmpty, types.ErrUnsupported, types.ErrAuth,
		types.ErrMandatoryMeta,
	} {
		wrapped := types.E("op", "/p", sentinel)
		resp := ErrResponse(wrapped)
		back := resp.Err()
		if !errors.Is(back, sentinel) {
			t.Errorf("sentinel %v lost through the wire: %v", sentinel, back)
		}
	}
	// Unclassified errors still carry their message.
	resp := ErrResponse(errors.New("weird failure"))
	if resp.Err() == nil || resp.Err().Error() != "weird failure" {
		t.Errorf("unclassified = %v", resp.Err())
	}
	// Success responses carry no error.
	ok, _ := OkResponse(struct{}{}, false)
	if ok.Err() != nil {
		t.Error("ok response should have nil error")
	}
}

// Property: any payload under the frame limit round-trips intact.
func TestFrameProperty(t *testing.T) {
	f := func(payload []byte, kind uint8) bool {
		a, b := pipeConn()
		typ := MsgType(kind%8 + 1)
		go a.WriteMsg(typ, payload)
		gt, gp, err := b.ReadMsg()
		if err != nil || gt != typ {
			return false
		}
		return bytes.Equal(gp, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestHandshake drives the dialling side of authentication against a
// scripted server for both kinds of credential: the right key yields a
// Mux naming the server; the wrong key (the server answers with its
// refusal and hangs up) and an AuthOK cut off mid-frame are both
// ErrAuth, and leave the connection closed.
func TestHandshake(t *testing.T) {
	authn := auth.New()
	authn.Register("alice", "alicepw")
	authn.RegisterPeer("srb2", "zonesecret")
	user, peer := Auth{User: "alice"}, Auth{Peer: "srb2"}
	cases := []struct {
		name     string
		a        Auth
		key      []byte
		truncate bool
		ok       bool
	}{
		{"user", user, auth.DeriveKey("alice", "alicepw"), false, true},
		{"user bad key", user, auth.DeriveKey("alice", "wrong"), false, false},
		{"user truncated AuthOK", user, auth.DeriveKey("alice", "alicepw"), true, false},
		{"peer", peer, auth.DeriveKey("peer:srb2", "zonesecret"), false, true},
		{"peer bad key", peer, auth.DeriveKey("peer:srb2", "wrong"), false, false},
		{"peer truncated AuthOK", peer, auth.DeriveKey("peer:srb2", "zonesecret"), true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			client, server := net.Pipe()
			defer server.Close()
			go func() {
				c := NewConn(server)
				c.WriteJSON(MsgChallenge, Challenge{Server: "srb1", Nonce: "nonce"})
				var a Auth
				if c.ReadJSON(MsgAuth, &a) != nil {
					return
				}
				verified := authn.VerifyUser(a.User, "nonce", a.Response)
				if a.Peer != "" {
					verified = authn.VerifyPeer(a.Peer, "nonce", a.Response)
				}
				switch {
				case !verified:
					c.WriteJSON(MsgResponse, ErrResponse(types.ErrAuth))
					server.Close()
				case tc.truncate:
					// A header promising 64 bytes, then half of them.
					server.Write(append([]byte{byte(MsgAuthOK), 0, 0, 0, 64}, make([]byte, 32)...))
					server.Close()
				default:
					c.WriteJSON(MsgAuthOK, AuthOK{Server: "srb1"})
				}
			}()
			m, err := Handshake(client, tc.a, tc.key)
			if tc.ok {
				if err != nil {
					t.Fatal(err)
				}
				defer m.Close()
				if m.Server() != "srb1" {
					t.Errorf("Server() = %q, want srb1", m.Server())
				}
				return
			}
			if !errors.Is(err, types.ErrAuth) {
				t.Fatalf("err = %v, want ErrAuth", err)
			}
			if _, err := client.Write([]byte{0}); err == nil {
				t.Error("failed handshake left the connection open")
			}
		})
	}
}

// TestSetBudget: no deadline leaves the budget alone, a live one
// rewrites it to what is left, a spent one fails before anything is sent.
func TestSetBudget(t *testing.T) {
	req := &Request{Op: OpGet, TimeoutMillis: 9999}
	if err := req.SetBudget(time.Time{}); err != nil || req.TimeoutMillis != 9999 {
		t.Fatalf("no deadline: err=%v, budget=%d (must be untouched)", err, req.TimeoutMillis)
	}
	if err := req.SetBudget(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if req.TimeoutMillis <= 0 || req.TimeoutMillis > 2000 {
		t.Errorf("budget = %dms, want (0, 2000]", req.TimeoutMillis)
	}
	if err := req.SetBudget(time.Now().Add(-time.Second)); !errors.Is(err, types.ErrTimeout) {
		t.Errorf("spent budget: err = %v, want ErrTimeout", err)
	}
}

// TestCallResultCheck covers the one reply check every caller shares.
func TestCallResultCheck(t *testing.T) {
	cases := []struct {
		name     string
		res      CallResult
		wantData bool
		want     error
	}{
		{"ok", CallResult{Resp: Response{OK: true}}, false, nil},
		{"ok with data", CallResult{Resp: Response{OK: true, DataFollows: true}}, true, nil},
		{"redirect", CallResult{Redirect: &Redirect{Addr: "x"}}, false, types.ErrInvalid},
		{"failure", CallResult{Resp: ErrResponse(types.ErrNotFound)}, true, types.ErrNotFound},
		{"missing stream", CallResult{Resp: Response{OK: true}}, true, types.ErrInvalid},
	}
	for _, tc := range cases {
		if err := tc.res.Check(OpGet, tc.wantData); !errors.Is(err, tc.want) || (tc.want == nil) != (err == nil) {
			t.Errorf("%s: Check = %v, want %v", tc.name, err, tc.want)
		}
	}
}

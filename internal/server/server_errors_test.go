package server

import (
	"encoding/json"
	"errors"
	"net"
	"testing"
	"time"

	"gosrb/internal/auth"
	"gosrb/internal/client"
	"gosrb/internal/types"
	"gosrb/internal/wire"
)

// rawConn dials and completes the handshake by hand so tests can send
// malformed or privileged frames the client library never produces.
func rawConn(t *testing.T, addr, user, password string) *wire.Conn {
	t.Helper()
	return rawAuth(t, addr, wire.Auth{User: user}, auth.DeriveKey(user, password))
}

// rawPeerConn authenticates as a zone peer.
func rawPeerConn(t *testing.T, addr, peerName, secret string) *wire.Conn {
	t.Helper()
	return rawAuth(t, addr, wire.Auth{Peer: peerName}, auth.DeriveKey("peer:"+peerName, secret))
}

func rawAuth(t *testing.T, addr string, a wire.Auth, key []byte) *wire.Conn {
	t.Helper()
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	c := wire.NewConn(nc)
	var ch wire.Challenge
	if err := c.ReadJSON(wire.MsgChallenge, &ch); err != nil {
		t.Fatal(err)
	}
	a.Response = auth.Respond(key, ch.Nonce)
	if err := c.WriteJSON(wire.MsgAuth, a); err != nil {
		t.Fatal(err)
	}
	var ok wire.AuthOK
	if err := c.ReadJSON(wire.MsgAuthOK, &ok); err != nil {
		t.Fatal(err)
	}
	return c
}

func roundTrip(t *testing.T, c *wire.Conn, req wire.Request) wire.Response {
	t.Helper()
	req.ID = 1 // one request at a time: any ID will do
	if err := c.WriteJSON(wire.MsgRequest, req); err != nil {
		t.Fatal(err)
	}
	var resp wire.Response
	if err := c.ReadJSON(wire.MsgResponse, &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestPeerRequestNeedsOnBehalf(t *testing.T) {
	z := newZone(t, Proxy)
	c := rawPeerConn(t, z.addr1, "srb2", zoneSecret)
	// A peer request without OnBehalf has no effective user: refused.
	resp := roundTrip(t, c, wire.Request{Op: wire.OpList, Args: mustJSON(t, wire.PathArgs{Path: "/"})})
	if resp.OK || !errors.Is(resp.Err(), types.ErrAuth) {
		t.Errorf("peer without OnBehalf = %+v", resp)
	}
	// With OnBehalf the zone trust applies.
	resp = roundTrip(t, c, wire.Request{Op: wire.OpList, OnBehalf: "admin", Args: mustJSON(t, wire.PathArgs{Path: "/"})})
	if !resp.OK {
		t.Errorf("peer with OnBehalf = %+v", resp.Err())
	}
}

func TestOnBehalfIgnoredForUsers(t *testing.T) {
	z := newZone(t, Proxy)
	c := rawConn(t, z.addr1, "alice", "alicepw")
	// A normal user cannot escalate by claiming OnBehalf=admin: the
	// op runs as alice, who may not audit.
	resp := roundTrip(t, c, wire.Request{Op: wire.OpAudit, OnBehalf: "admin", Args: mustJSON(t, wire.AuditArgs{})})
	if resp.OK || !errors.Is(resp.Err(), types.ErrPermission) {
		t.Errorf("OnBehalf escalation = %+v", resp)
	}
}

func TestBadPeerSecretRejected(t *testing.T) {
	z := newZone(t, Proxy)
	nc, err := net.Dial("tcp", z.addr1)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	c := wire.NewConn(nc)
	var ch wire.Challenge
	if err := c.ReadJSON(wire.MsgChallenge, &ch); err != nil {
		t.Fatal(err)
	}
	resp := auth.Respond(auth.DeriveKey("peer:srb2", "wrong-secret"), ch.Nonce)
	if err := c.WriteJSON(wire.MsgAuth, wire.Auth{Peer: "srb2", Response: resp}); err != nil {
		t.Fatal(err)
	}
	var r wire.Response
	if err := c.ReadJSON(wire.MsgResponse, &r); err != nil {
		t.Fatal(err)
	}
	if r.OK || !errors.Is(r.Err(), types.ErrAuth) {
		t.Errorf("bad peer secret = %+v", r)
	}
}

func TestUnknownOpAndBadArgs(t *testing.T) {
	z := newZone(t, Proxy)
	c := rawConn(t, z.addr1, "alice", "alicepw")
	resp := roundTrip(t, c, wire.Request{Op: "frobnicate"})
	if resp.OK || !errors.Is(resp.Err(), types.ErrUnsupported) {
		t.Errorf("unknown op = %+v", resp)
	}
	// Malformed args JSON yields an error response, not a dropped
	// connection: the next request still works.
	resp = roundTrip(t, c, wire.Request{Op: wire.OpList, Args: []byte(`{"Path": 42}`)})
	if resp.OK {
		t.Error("malformed args should fail")
	}
	resp = roundTrip(t, c, wire.Request{Op: wire.OpList, Args: mustJSON(t, wire.PathArgs{Path: "/home"})})
	if !resp.OK {
		t.Errorf("connection should survive a bad request: %+v", resp.Err())
	}
}

func TestBadLockKindOverWire(t *testing.T) {
	z := newZone(t, Proxy)
	cl := z.client(z.addr1, "alice", "alicepw")
	cl.Put("/home/f", []byte("x"), client.PutOpts{Resource: "disk1"})
	if err := cl.Lock("/home/f", "sideways", time.Hour); !errors.Is(err, types.ErrInvalid) {
		t.Errorf("bad lock kind = %v", err)
	}
	if err := cl.Chmod("/home/f", "bob", "emperor"); !errors.Is(err, types.ErrInvalid) {
		t.Errorf("bad level = %v", err)
	}
}

func TestFederationWithDeadPeer(t *testing.T) {
	z := newZone(t, Proxy)
	cl := z.client(z.addr1, "alice", "alicepw")
	if _, err := cl.Put("/home/r.dat", []byte("x"), client.PutOpts{Resource: "disk2"}); err != nil {
		t.Fatal(err)
	}
	// srb2 dies; reads through srb1 fail cleanly rather than hanging.
	z.s2.Close()
	if _, err := cl.Get("/home/r.dat"); err == nil {
		t.Error("get through a dead peer should fail")
	}
	// srb1 itself keeps serving local work.
	if _, err := cl.List("/home"); err != nil {
		t.Errorf("local op after peer death: %v", err)
	}
}

func TestTicketBelowReadGrantsNothing(t *testing.T) {
	z := newZone(t, Proxy)
	alice := z.client(z.addr1, "alice", "alicepw")
	alice.Put("/home/s.txt", []byte("secret"), client.PutOpts{Resource: "disk1"})
	// A "none"-level ticket must not open the object.
	tk, err := alice.IssueTicket("/home/s.txt", "none", -1, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	z.authn.Register("bob", "bobpw")
	z.cat.AddUser(types.User{Name: "bob", Domain: "x"})
	bob := z.client(z.addr1, "bob", "bobpw")
	if _, err := bob.GetWithTicket("/home/s.txt", tk); !errors.Is(err, types.ErrPermission) {
		t.Errorf("none-level ticket = %v", err)
	}
	// An invalid level cannot even be issued.
	if _, err := alice.IssueTicket("/home/s.txt", "emperor", -1, time.Hour); !errors.Is(err, types.ErrInvalid) {
		t.Errorf("bad ticket level = %v", err)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

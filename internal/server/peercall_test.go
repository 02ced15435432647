package server

import (
	"net"
	"testing"
	"time"

	"gosrb/internal/acl"
	"gosrb/internal/auth"
	"gosrb/internal/core"
	"gosrb/internal/mcat/shard"
	"gosrb/internal/types"
	"gosrb/internal/wire"
)

// TestGridGatherTriesADeadPeerOnce: a grid gather's hop gets one attempt,
// never the backoff loop, so a dead member costs one failed dial inside
// the caller's deadline.
func TestGridGatherTriesADeadPeerOnce(t *testing.T) {
	z := newZone(t, Proxy)
	z.s2.Close()
	cl := z.client(z.addr1, "alice", "alicepw")
	retries := z.b1.Metrics().Counter("federation.retries")
	before := retries.Value()
	var rep wire.GridStatReply
	if err := cl.Call(wire.OpGridStat, wire.GridStatArgs{WindowSeconds: 60}, &rep); err != nil {
		t.Fatal(err)
	}
	if got := retries.Value(); got != before {
		t.Errorf("federation.retries %d -> %d: the gather retried its dead peer", before, got)
	}
}

// TestFollowerPullsOverOnePooledConn: a 4-shard follower synced 10 times
// pulls its leader's journal over the federation pool, so the leader
// serves one connection, not one per pull of every shard.
func TestFollowerPullsOverOnePooledConn(t *testing.T) {
	const shards = 4
	leadCat := shard.NewRouter(shards, "admin", "sdsc")
	leadCat.EnableMemoryJournals()
	leadCat.MkColl("/home", "admin")
	leadCat.SetACL("/home", "alice", acl.Write)
	authn := auth.New()
	authn.Register("admin", "adminpw")
	s1 := New(core.New(leadCat, "srb1"), authn, Proxy)
	folCat := shard.NewRouter(shards, "admin", "sdsc")
	folCat.EnableMemoryJournals()
	s2 := New(core.New(folCat, "srb2"), authn, Proxy)
	t.Cleanup(func() { s1.Close(); s2.Close() })
	addr1, err := s1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr2, err := s2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s1.AddPeer("srb2", addr2, zoneSecret)
	s2.AddPeer("srb1", addr1, zoneSecret)
	for i := 0; i < shards; i++ {
		folCat.SetFollower(i, "srb1")
	}
	folCat.SetPuller(s2.ShardPuller("admin"), 100)

	conns := s1.slotsMade.Load()
	for i := 0; i < 10; i++ {
		if err := leadCat.MkColl("/home/c"+string(rune('a'+i)), "admin"); err != nil {
			t.Fatal(err)
		}
		if err := folCat.SyncOnce(); err != nil {
			t.Fatalf("sync %d: %v", i, err)
		}
	}
	if _, err := folCat.GetColl("/home/cj"); err != nil {
		t.Fatalf("the last sync did not replicate: %v", err)
	}
	if got := s1.slotsMade.Load() - conns; got != 1 {
		t.Errorf("10 syncs of %d shards opened %d conns to the leader, want 1", shards, got)
	}
	if got := s2.PeerPoolStats().Dialed; got != 1 {
		t.Errorf("follower dialed its leader %d times, want 1", got)
	}
}

// TestPeerCallTimeoutKeepsConn: a peer call that times out with no
// stream open leaves its conn healthy — the late reply is dropped by ID
// — so the conn stays pooled and the next call to that peer dials
// nothing.
func TestPeerCallTimeoutKeepsConn(t *testing.T) {
	z := newZone(t, Proxy)
	z.s1.SetPeerDialer(func(string) (net.Conn, error) {
		srv, cli := net.Pipe()
		t.Cleanup(func() { srv.Close() })
		first := true
		go fakeOwner(srv, func(c *wire.Conn, req *wire.Request) error {
			if first {
				// Answer the first call only after its caller gave up.
				first = false
				time.Sleep(200 * time.Millisecond)
			}
			body, err := wire.AppendBody(nil, &types.Stat{Path: "/home/x"})
			if err != nil {
				return err
			}
			return c.WriteResponse(&wire.Response{ID: req.ID, OK: true, Body: body})
		})
		return cli, nil
	})
	args, err := wire.AppendBody(nil, &wire.PathArgs{Path: "/home/x"})
	if err != nil {
		t.Fatal(err)
	}
	stat := func(d time.Duration) error {
		_, err := z.s1.peerCall("srb2", "alice", &wire.Request{Op: wire.OpStat, Args: args}, nil, nil, time.Now().Add(d), nil, never)
		return err
	}
	if err := stat(50 * time.Millisecond); err == nil {
		t.Fatal("a call answered after its deadline succeeded")
	}
	if st := z.s1.PeerPoolStats(); st.Dialed != 1 || st.Evicted != 0 || st.Conns != 1 {
		t.Fatalf("after the timeout the pool is %+v, want its one conn kept", st)
	}
	if err := stat(5 * time.Second); err != nil {
		t.Fatalf("the call after a timeout: %v", err)
	}
	if got := z.s1.PeerPoolStats().Dialed; got != 1 {
		t.Errorf("the call after a timeout dialed: %d dials, want 1", got)
	}
	// The timeout still counts as the peer's transport failure, which is
	// what the breaker counts too.
	for _, ps := range z.b1.Metrics().Peers().Snapshot() {
		if ps.Peer == "srb2" && (ps.Ops != 2 || ps.Errors != 1) {
			t.Errorf("peer observatory for srb2 = %d ops, %d errors; want 2, 1", ps.Ops, ps.Errors)
		}
	}
}

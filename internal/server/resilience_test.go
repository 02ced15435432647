package server

import (
	"errors"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"gosrb/internal/client"
	"gosrb/internal/resilience"
	"gosrb/internal/types"
	"gosrb/internal/wire"
)

// seedRemote puts one object on disk2 (owned by srb2) through srb2
// directly, so reads through srb1 must federate.
func seedRemote(z *zone, path string, data []byte) {
	z.t.Helper()
	// Dial directly and close right away: a lingering conn would make a
	// later mid-test s2.Close() wait on its handler forever.
	cl, err := client.Dial(z.addr2, "alice", "alicepw")
	if err != nil {
		z.t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Put(path, data, client.PutOpts{Resource: "disk2"}); err != nil {
		z.t.Fatal(err)
	}
}

// oneShot makes a client fail immediately instead of masking server
// behavior with its own retries.
func oneShot(cl *client.Client) {
	cl.SetRetryPolicy(resilience.Policy{MaxAttempts: 1, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond})
}

// TestFederationBreakerTripsOnDeadPeer: once srb2 dies, srb1's dial
// failures trip the peer breaker; further reads fast-fail without
// touching the network.
func TestFederationBreakerTripsOnDeadPeer(t *testing.T) {
	z := newZone(t, Proxy)
	seedRemote(z, "/home/remote.txt", []byte("on disk2"))

	cl := z.client(z.addr1, "alice", "alicepw")
	oneShot(cl)
	if data, err := cl.Get("/home/remote.txt"); err != nil || string(data) != "on disk2" {
		t.Fatalf("federated get = %q, %v", data, err)
	}

	z.b1.Breakers().SetConfig(resilience.BreakerConfig{Threshold: 2, Cooldown: time.Hour})
	z.s1.SetRetryPolicy(resilience.Policy{MaxAttempts: 1, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond})
	z.s1.sleep = func(time.Duration) {}
	z.s2.Close()

	for i := 0; i < 2; i++ {
		if _, err := cl.Get("/home/remote.txt"); err == nil {
			t.Fatal("get must fail while the peer is down")
		}
	}
	if st := z.s1.peerBreaker("srb2").State(); st != resilience.Open {
		t.Fatalf("peer breaker = %v, want Open after repeated dial failures", st)
	}

	// Open breaker: the next read fails fast, counted, offline-shaped.
	before := z.b1.Metrics().Counter("federation.fastfail").Value()
	_, err := cl.Get("/home/remote.txt")
	if !errors.Is(err, types.ErrOffline) {
		t.Fatalf("fast-fail err = %v, want offline", err)
	}
	if got := z.b1.Metrics().Counter("federation.fastfail").Value(); got != before+1 {
		t.Errorf("federation.fastfail = %d, want %d", got, before+1)
	}
}

// TestFederationRetriesFlakyDial: a dial that fails once is absorbed
// by the federation retrier; the client sees success and the retry
// counter records the recovery.
func TestFederationRetriesFlakyDial(t *testing.T) {
	z := newZone(t, Proxy)
	seedRemote(z, "/home/flaky.txt", []byte("eventually"))

	var dials atomic.Int64
	z.s1.SetPeerDialer(func(addr string) (net.Conn, error) {
		if dials.Add(1) == 1 {
			return nil, io.ErrUnexpectedEOF
		}
		return net.DialTimeout("tcp", addr, time.Second)
	})
	z.s1.SetRetryPolicy(resilience.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond})
	z.s1.sleep = func(time.Duration) {}

	cl := z.client(z.addr1, "alice", "alicepw")
	oneShot(cl)
	data, err := cl.Get("/home/flaky.txt")
	if err != nil || string(data) != "eventually" {
		t.Fatalf("get through flaky dial = %q, %v", data, err)
	}
	if got := z.b1.Metrics().Counter("federation.retries").Value(); got < 1 {
		t.Errorf("federation.retries = %d, want >= 1", got)
	}
	if st := z.s1.peerBreaker("srb2").State(); st != resilience.Closed {
		t.Errorf("peer breaker = %v, want Closed after recovery", st)
	}
}

// TestLocalityFailoverOnTrippedResource: a clean local replica whose
// resource breaker is open no longer pins the read locally — srb1
// routes it to the surviving replica's owner.
func TestLocalityFailoverOnTrippedResource(t *testing.T) {
	z := newZone(t, Proxy)
	cl := z.client(z.addr1, "alice", "alicepw")
	if _, err := cl.Put("/home/both.txt", []byte("replicated"), client.PutOpts{Resource: "disk1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Replicate("/home/both.txt", "disk2"); err != nil {
		t.Fatal(err)
	}

	// Healthy local resource: the read is served by srb1 itself.
	srb2Gets := func() int64 { return z.b2.Metrics().Op("server." + wire.OpGet).Count() }
	before := srb2Gets()
	if data, err := cl.Get("/home/both.txt"); err != nil || string(data) != "replicated" {
		t.Fatalf("local get = %q, %v", data, err)
	}
	if got := srb2Gets(); got != before {
		t.Fatalf("healthy local read reached srb2 (%d gets)", got)
	}

	// Trip disk1's breaker: same read now federates to srb2.
	z.b1.Breakers().SetConfig(resilience.BreakerConfig{Threshold: 1, Cooldown: time.Hour})
	z.b1.Breakers().For("resource", "disk1").Failure()
	before = srb2Gets()
	if data, err := cl.Get("/home/both.txt"); err != nil || string(data) != "replicated" {
		t.Fatalf("failover get = %q, %v", data, err)
	}
	if got := srb2Gets(); got != before+1 {
		t.Errorf("srb2 server.get count = %d, want %d (read must federate)", got, before+1)
	}
}

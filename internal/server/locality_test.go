package server

import (
	"testing"
	"time"

	"gosrb/internal/client"
	"gosrb/internal/obs"
	"gosrb/internal/resilience"
	"gosrb/internal/wire"
)

// TestLocalReadPassesRemoteReplica: an object whose first replica is on a
// peer and whose second is local is read locally, and that is no
// failover: the selector puts this server's replicas first, so nothing
// is tried and given up. With the local resource's breaker open the same
// read federates to the peer.
func TestLocalReadPassesRemoteReplica(t *testing.T) {
	z := newZone(t, Proxy)
	cl := z.client(z.addr1, "alice", "alicepw")
	if _, err := cl.Put("/home/far.txt", []byte("first on srb2"), client.PutOpts{Resource: "disk2"}); err != nil {
		t.Fatal(err)
	}
	if r, err := cl.Replicate("/home/far.txt", "disk1"); err != nil || r.Resource != "disk1" {
		t.Fatalf("replicate to disk1 = %+v, %v", r, err)
	}
	srb2Gets := func() int64 { return z.b2.Metrics().Op("server." + wire.OpGet).Count() }
	failovers := func() int64 { return z.b1.Metrics().Counter("replica.read.failover").Value() }
	// events counts the last read's span events by server and kind.
	events := func() map[string]int {
		t.Helper()
		var tr wire.TraceReply
		if err := cl.Call(wire.OpTrace, wire.TraceArgs{ID: cl.LastTrace()}, &tr); err != nil {
			t.Fatal(err)
		}
		n := map[string]int{}
		for _, sp := range tr.Spans {
			for _, e := range sp.Events {
				n[sp.Server+" "+e.Kind]++
			}
		}
		return n
	}

	gets, fo := srb2Gets(), failovers()
	if data, err := cl.Get("/home/far.txt"); err != nil || string(data) != "first on srb2" {
		t.Fatalf("local get = %q, %v", data, err)
	}
	if got := srb2Gets(); got != gets {
		t.Errorf("local read reached srb2: server.get %d -> %d", gets, got)
	}
	if got := failovers(); got != fo {
		t.Errorf("replica.read.failover %d -> %d on a read that failed nothing", fo, got)
	}
	if ev := events(); ev["srb1 "+obs.EventFailover] != 0 {
		t.Errorf("local read's trace has a failover event: %v", ev)
	}

	// Trip disk1's breaker: the read federates to the holder of the
	// surviving replica, and says so.
	z.b1.Breakers().SetConfig(resilience.BreakerConfig{Threshold: 1, Cooldown: time.Hour})
	z.b1.Breakers().For("resource", "disk1").Failure()
	gets = srb2Gets()
	if data, err := cl.Get("/home/far.txt"); err != nil || string(data) != "first on srb2" {
		t.Fatalf("failover get = %q, %v", data, err)
	}
	if got := srb2Gets(); got != gets+1 {
		t.Errorf("srb2 server.get %d -> %d, want one federated read", gets, got)
	}
	if ev := events(); ev["srb1 "+obs.EventFailover] != 1 {
		t.Errorf("federated read's trace = %v, want one failover event on srb1", ev)
	}
}

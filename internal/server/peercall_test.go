package server

import (
	"testing"

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

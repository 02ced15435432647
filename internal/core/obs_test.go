package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"gosrb/internal/faultnet"
	"gosrb/internal/mcat/shard"
	"gosrb/internal/obs"
	"gosrb/internal/resilience"
	"gosrb/internal/storage/memfs"
)

// TestBrokerOpMetrics checks that broker operations land in the right
// metric families: counts, error counts, latency observations and the
// per-driver byte totals maintained by the storage decorator.
func TestBrokerOpMetrics(t *testing.T) {
	b := newBroker(t)
	payload := []byte("metered bytes")
	if _, err := b.Ingest("alice", IngestOpts{Path: "/home/m.dat", Data: payload, Resource: "disk1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Get("alice", "/home/m.dat"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Get("alice", "/home/nope.dat"); err == nil {
		t.Fatal("expected notfound")
	}
	s := b.Metrics().Snapshot()
	ing := s.Ops["broker.ingest"]
	if ing.Count != 1 || ing.Errors != 0 {
		t.Errorf("ingest = %+v", ing)
	}
	get := s.Ops["broker.get"]
	if get.Count != 2 || get.Errors != 1 {
		t.Errorf("get = %+v", get)
	}
	if get.TotalMicros < 0 || get.P50Micros <= 0 {
		t.Errorf("get latency not observed: %+v", get)
	}
	if got := s.Counters["storage.disk1.bytes_in"]; got != int64(len(payload)) {
		t.Errorf("bytes_in = %d, want %d", got, len(payload))
	}
	if got := s.Counters["storage.disk1.bytes_out"]; got != int64(len(payload)) {
		t.Errorf("bytes_out = %d, want %d", got, len(payload))
	}
	if s.Counters["storage.disk1.writes"] == 0 || s.Counters["storage.disk1.reads"] == 0 {
		t.Errorf("read/write op counters missing: %v", s.Counters)
	}
}

// TestReplicaFanoutMetrics writes through a logical resource and checks
// the fan-out success counter; an offline member must count as failure.
func TestReplicaFanoutMetrics(t *testing.T) {
	b := newBroker(t)
	if _, err := b.Ingest("alice", IngestOpts{Path: "/home/f.dat", Data: []byte("one"), Resource: "mirror"}); err != nil {
		t.Fatal(err)
	}
	snap := b.Metrics().Snapshot()
	okBefore := snap.Counters["replica.fanout.ok"]
	if okBefore < 2 {
		t.Errorf("fanout.ok = %d after mirror ingest, want >= 2", okBefore)
	}
	// Rewrite with one member offline: one ok, one fail, and the read
	// that follows fails over past the dirty replica.
	b.Cat.SetResourceOnline("disk1", false)
	if err := b.Reingest("alice", "/home/f.dat", []byte("two")); err != nil {
		t.Fatal(err)
	}
	snap = b.Metrics().Snapshot()
	if snap.Counters["replica.fanout.fail"] == 0 {
		t.Errorf("fanout.fail = 0 with an offline member")
	}
	if snap.Counters["replica.fanout.ok"] <= okBefore {
		t.Errorf("fanout.ok did not grow: %d -> %d", okBefore, snap.Counters["replica.fanout.ok"])
	}
}

// TestSetMetricsNilDisables is the baseline path the overhead benchmark
// relies on: a nil registry must make every recording a no-op without
// breaking any operation.
func TestSetMetricsNilDisables(t *testing.T) {
	cat := newBroker(t).Cat
	b := New(cat, "srb1")
	b.SetMetrics(nil)
	// Mount after SetMetrics(nil) so drivers skip byte counting too.
	if err := b.Remount("disk1", memfs.New()); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Ingest("alice", IngestOpts{Path: "/home/n.dat", Data: []byte("x"), Resource: "disk1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Get("alice", "/home/n.dat"); err != nil {
		t.Fatal(err)
	}
	if b.Metrics() != nil {
		t.Error("metrics registry should be nil")
	}
}

// TestMetricsConcurrentBrokerOps hammers the registry from concurrent
// broker operations; under -race it verifies the whole recording path
// (op shims, histogram buckets, storage byte counters) is data-race
// free, and the counts must still add up exactly.
func TestMetricsConcurrentBrokerOps(t *testing.T) {
	b := newBroker(t)
	const workers = 8
	const iters = 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			path := fmt.Sprintf("/home/c%d.dat", w)
			if _, err := b.Ingest("alice", IngestOpts{Path: path, Data: []byte("z"), Resource: "disk1"}); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < iters; i++ {
				if _, err := b.Get("alice", path); err != nil {
					t.Error(err)
					return
				}
				if i%10 == 0 {
					b.Metrics().Snapshot() // concurrent readers
				}
			}
		}(w)
	}
	wg.Wait()
	s := b.Metrics().Snapshot()
	if got := s.Ops["broker.get"].Count; got != workers*iters {
		t.Errorf("broker.get count = %d, want %d", got, workers*iters)
	}
	if got := s.Ops["broker.ingest"].Count; got != workers {
		t.Errorf("broker.ingest count = %d, want %d", got, workers)
	}
}

// TestGetHandleAccountsOnce: a get is counted once per layer however many
// layers its reader passes through — the get's own row (broker.get and
// the shard-key heat) from the broker, and the replica's (storage.read,
// the transfer row, the object heat) from the replica handle inside it.
// A read that fails is one get error and one failure on the resource's
// breaker. A container member is read as a replica of its container's
// segment: its get files the same rows as a file's.
func TestGetHandleAccountsOnce(t *testing.T) {
	b := newBroker(t)
	reg := b.Metrics()
	const path = "/home/acct/f"
	payload := []byte("accounted once")
	if err := b.Mkdir("alice", "/home/acct"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Ingest("alice", IngestOpts{Path: path, Data: payload, Resource: "disk1"}); err != nil {
		t.Fatal(err)
	}
	heat := func(h *obs.HeatTable, key string) obs.HeatStat {
		for _, row := range h.Snapshot() {
			if row.Key == key {
				return row
			}
		}
		return obs.HeatStat{}
	}
	phases := func(sp *obs.Span, name string) int {
		n := 0
		for _, ev := range sp.Events() {
			if ev.Kind == obs.EventPhase && ev.Detail == name {
				n++
			}
		}
		return n
	}
	key := shard.KeyOf(path)
	keyBefore, objBefore := heat(reg.HeatKeys(), key), heat(reg.HeatObjects(), path)
	sp := obs.StartSpan(0, "get")
	if data, err := b.GetTraced("alice", path, sp); err != nil || !bytes.Equal(data, payload) {
		t.Fatalf("get = %q, %v", data, err)
	}
	if get := reg.Snapshot().Ops["broker.get"]; get.Count != 1 || get.Errors != 0 {
		t.Errorf("broker.get = %d (%d errors), want 1 (0)", get.Count, get.Errors)
	}
	n := int64(len(payload))
	if k := heat(reg.HeatKeys(), key); k.Count-keyBefore.Count != 1 || k.Bytes-keyBefore.Bytes != n {
		t.Errorf("shard-key heat moved by %d hits, %d bytes; want 1, %d", k.Count-keyBefore.Count, k.Bytes-keyBefore.Bytes, n)
	}
	if o := heat(reg.HeatObjects(), path); o.Count-objBefore.Count != 1 || o.Bytes-objBefore.Bytes != n {
		t.Errorf("object heat moved by %d hits, %d bytes; want 1, %d", o.Count-objBefore.Count, o.Bytes-objBefore.Bytes, n)
	}
	if got := phases(sp, obs.PhaseStorageRead); got != 1 {
		t.Errorf("%d storage.read phases, want 1", got)
	}
	peers := reg.Peers().Snapshot()
	if len(peers) != 1 || peers[0].Resource != "disk1" || peers[0].Ops != 1 || peers[0].Bytes != n {
		t.Errorf("transfer rows = %+v, want one disk1 row of one %d-byte read", peers, n)
	}

	// A driver that dies mid-read: one get error, one breaker failure. At
	// a threshold of two, one failure leaves the breaker closed and one
	// more trips it.
	b.Breakers().SetConfig(resilience.BreakerConfig{Threshold: 2, Cooldown: time.Hour})
	in := faultnet.New(1)
	if err := b.Remount("disk2", in.WrapDriver("disk2", memfs.New())); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Ingest("alice", IngestOpts{Path: "/home/acct/torn", Data: payload, Resource: "disk2"}); err != nil {
		t.Fatal(err)
	}
	in.Target("disk2").PartialReadAfter(3)
	if _, err := b.Get("alice", "/home/acct/torn"); err == nil {
		t.Fatal("get through a driver that dies mid-read succeeded")
	}
	if get := reg.Snapshot().Ops["broker.get"]; get.Count != 2 || get.Errors != 1 {
		t.Errorf("broker.get after a torn read = %d (%d errors), want 2 (1)", get.Count, get.Errors)
	}
	br := b.Breakers().For("resource", "disk2")
	if st := br.State(); st != resilience.Closed {
		t.Errorf("disk2 breaker %v after one torn read; more than one failure was filed", st)
	}
	if br.Failure(); br.State() != resilience.Open {
		t.Errorf("disk2 breaker %v after one more failure; the torn read filed none", br.State())
	}

	// A container member: the get's own rows and one replica read of its
	// segment on disk1.
	if _, err := b.CreateContainer("alice", "/home/acct/cc", "disk1"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Ingest("alice", IngestOpts{Path: "/home/acct/member", Data: payload, Container: "/home/acct/cc"}); err != nil {
		t.Fatal(err)
	}
	peerOps := func() (n int64) {
		for _, row := range reg.Peers().Snapshot() {
			if row.Resource == "disk1" {
				n += row.Ops
			}
		}
		return n
	}
	opsBefore := peerOps()
	sp = obs.StartSpan(0, "get")
	if data, err := b.GetTraced("alice", "/home/acct/member", sp); err != nil || !bytes.Equal(data, payload) {
		t.Fatalf("member get = %q, %v", data, err)
	}
	if get := reg.Snapshot().Ops["broker.get"]; get.Count != 3 || get.Errors != 1 {
		t.Errorf("broker.get after a member get = %d (%d errors), want 3 (1)", get.Count, get.Errors)
	}
	if got := phases(sp, obs.PhaseStorageRead); got != 1 {
		t.Errorf("member get filed %d storage.read phases, want 1", got)
	}
	if got := peerOps() - opsBefore; got != 1 {
		t.Errorf("member get filed %d transfer observations on disk1, want 1", got)
	}
	if o := heat(reg.HeatObjects(), "/home/acct/member"); o.Count != 1 || o.Bytes != n {
		t.Errorf("member get filed %d object-heat hits of %d bytes, want 1 of %d", o.Count, o.Bytes, n)
	}
}

package main

import (
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gosrb/internal/acl"
	"gosrb/internal/auth"
	"gosrb/internal/client"
	"gosrb/internal/core"
	"gosrb/internal/faultnet"
	"gosrb/internal/mcat"
	"gosrb/internal/obs"
	"gosrb/internal/resilience"
	"gosrb/internal/server"
	"gosrb/internal/storage/memfs"
	"gosrb/internal/types"
	"gosrb/internal/wire"
)

// chaosSeed fixes every random choice the injector makes, so each run
// of this test replays the identical fault schedule.
const chaosSeed = 42

// fakeTicker is a hand-driven clock for breaker cooldowns.
type fakeTicker struct {
	mu  sync.Mutex
	now time.Time
}

func (f *fakeTicker) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeTicker) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	f.mu.Unlock()
}

// TestChaosFederatedFailover is the chaos end-to-end: an in-process
// two-server zone with deterministic fault injection. It kills the
// local resource under a replicated object (reads must fail over to
// the surviving replica via the peer), then kills the peer uplink
// mid-federation (the peer breaker must trip, fast-fail, and recover
// through a half-open probe once the link heals).
func TestChaosFederatedFailover(t *testing.T) {
	inj := faultnet.New(chaosSeed)

	cat := mcat.New("admin", "sdsc")
	cat.AddUser(types.User{Name: "alice", Domain: "sdsc"})
	cat.MkColl("/home", "admin")
	cat.SetACL("/home", "alice", acl.Write)

	b1 := core.New(cat, "srb1")
	b2 := core.New(cat, "srb2")
	if err := b1.AddPhysicalResource("admin", "disk1", types.ClassFileSystem, "memfs",
		inj.WrapDriver("disk1", memfs.New())); err != nil {
		t.Fatal(err)
	}
	if err := b2.AddPhysicalResource("admin", "disk2", types.ClassFileSystem, "memfs",
		inj.WrapDriver("disk2", memfs.New())); err != nil {
		t.Fatal(err)
	}

	authn := auth.New()
	authn.Register("alice", "alicepw")
	authn.Register("admin", "adminpw")

	s1 := server.New(b1, authn, server.Proxy)
	s2 := server.New(b2, authn, server.Proxy)
	t.Cleanup(func() { s1.Close(); s2.Close() })
	addr1, err := s1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr2, err := s2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s1.AddPeer("srb2", addr2, "zone-secret")
	s2.AddPeer("srb1", addr1, "zone-secret")

	// All of srb1's federation traffic runs over the injectable uplink,
	// with deterministic latency spikes from the seeded RNG.
	s1.SetPeerDialer(inj.WrapDial("uplink", func(addr string) (net.Conn, error) {
		return net.DialTimeout("tcp", addr, time.Second)
	}))
	inj.Target("uplink").SpikeLatency(time.Millisecond, 0.25)
	s1.SetRetryPolicy(resilience.Policy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond})

	clock := &fakeTicker{now: time.Unix(1_000_000, 0)}
	b1.Breakers().SetConfig(resilience.BreakerConfig{Threshold: 2, Cooldown: time.Minute})
	b1.Breakers().SetClock(clock.Now)

	adminAddr := serveAdmin(t, s1)

	cl, err := client.Dial(addr1, "alice", "alicepw")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetRetryPolicy(resilience.Policy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond})

	// Seed: one object replicated on both disks, one remote-only.
	if _, err := cl.Put("/home/chaos.txt", []byte("survives chaos"), client.PutOpts{Resource: "disk1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Replicate("/home/chaos.txt", "disk2"); err != nil {
		t.Fatal(err)
	}
	func() {
		cl2, err := client.Dial(addr2, "alice", "alicepw")
		if err != nil {
			t.Fatal(err)
		}
		defer cl2.Close()
		if _, err := cl2.Put("/home/remote-only.txt", []byte("only on disk2"), client.PutOpts{Resource: "disk2"}); err != nil {
			t.Fatal(err)
		}
	}()

	// Phase 1 — kill the local resource. One client Get absorbs the
	// whole failover: local attempts fail, the resource breaker trips,
	// and the read federates to the surviving replica on srb2.
	inj.Target("disk1").Kill()
	data, err := cl.Get("/home/chaos.txt")
	if err != nil || string(data) != "survives chaos" {
		t.Fatalf("failover get = %q, %v", data, err)
	}
	if cl.Retries() == 0 {
		t.Error("client absorbed the outage without retrying — breaker never exercised")
	}
	if st := b1.Breakers().States()["resource.disk1"]; st != resilience.Open {
		t.Errorf("resource.disk1 breaker = %v, want Open", st)
	}

	// Phase 2 — kill the uplink mid-federation. Dial attempts fail,
	// the peer breaker opens, and further reads fast-fail offline.
	if data, err := cl.Get("/home/remote-only.txt"); err != nil || string(data) != "only on disk2" {
		t.Fatalf("pre-outage proxied get = %q, %v", data, err)
	}
	inj.Target("uplink").Kill()
	if _, err := cl.Get("/home/remote-only.txt"); err == nil {
		t.Fatal("get over dead uplink must fail")
	}
	if st := b1.Breakers().States()["peer.srb2"]; st != resilience.Open {
		t.Fatalf("peer.srb2 breaker = %v, want Open", st)
	}
	// Open breaker: the next read fast-fails, shaped as offline.
	if _, err := cl.Get("/home/remote-only.txt"); !errors.Is(err, types.ErrOffline) {
		t.Fatalf("fast-fail get = %v, want offline", err)
	}

	// The open breaker is visible on the admin endpoint.
	metrics := scrape(t, adminAddr)
	if !strings.Contains(metrics, "\nsrb_breaker_peer_srb2_state 2\n") {
		t.Errorf("/metrics missing open peer breaker:\n%s", grepLines(metrics, "srb_breaker_"))
	}

	// Phase 3 — heal the uplink. After the cooldown the breaker goes
	// half-open; the probe read succeeds and closes it.
	inj.Target("uplink").Revive()
	clock.Advance(2 * time.Minute)
	data, err = cl.Get("/home/remote-only.txt")
	if err != nil || string(data) != "only on disk2" {
		t.Fatalf("post-recovery get = %q, %v", data, err)
	}
	if st := b1.Breakers().States()["peer.srb2"]; st != resilience.Closed {
		t.Errorf("peer.srb2 breaker = %v, want Closed after probe", st)
	}
}

// serveAdmin serves s's admin endpoint for the length of the test, as
// the daemon runtime serves it, and returns its address.
func serveAdmin(t *testing.T, s *server.Server) string {
	t.Helper()
	web := httptest.NewServer(server.NewAdminHandler(s.AdminEnv("admin")))
	t.Cleanup(web.Close)
	return web.Listener.Addr().String()
}

// scrape fetches the admin /metrics page (Prometheus exposition).
func scrape(t *testing.T, addr string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestChaosTraceSpanTree is the observability end-to-end: the same
// two-server zone with an injected resource failure, but the assertion
// target is the trace. One client Get rides out the outage (local
// attempts fail, the resource breaker trips, the read fails over to the
// peer's replica); fetching that call's trace afterwards must return a
// span tree spanning both servers, carrying the retry and breaker-trip
// events and the failover child span, and the usage table must charge
// the read to the right user and collection.
func TestChaosTraceSpanTree(t *testing.T) {
	inj := faultnet.New(chaosSeed)

	cat := mcat.New("admin", "sdsc")
	cat.AddUser(types.User{Name: "alice", Domain: "sdsc"})
	cat.MkColl("/home", "admin")
	cat.SetACL("/home", "alice", acl.Write)

	b1 := core.New(cat, "srb1")
	b2 := core.New(cat, "srb2")
	if err := b1.AddPhysicalResource("admin", "disk1", types.ClassFileSystem, "memfs",
		inj.WrapDriver("disk1", memfs.New())); err != nil {
		t.Fatal(err)
	}
	if err := b2.AddPhysicalResource("admin", "disk2", types.ClassFileSystem, "memfs",
		inj.WrapDriver("disk2", memfs.New())); err != nil {
		t.Fatal(err)
	}

	authn := auth.New()
	authn.Register("alice", "alicepw")
	authn.Register("admin", "adminpw")

	s1 := server.New(b1, authn, server.Proxy)
	s2 := server.New(b2, authn, server.Proxy)
	t.Cleanup(func() { s1.Close(); s2.Close() })
	addr1, err := s1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr2, err := s2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s1.AddPeer("srb2", addr2, "zone-secret")
	s2.AddPeer("srb1", addr1, "zone-secret")
	b1.Breakers().SetConfig(resilience.BreakerConfig{Threshold: 2, Cooldown: time.Minute})

	adminAddr := serveAdmin(t, s1)

	cl, err := client.Dial(addr1, "alice", "alicepw")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetRetryPolicy(resilience.Policy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond})

	payload := []byte("survives chaos")
	if _, err := cl.Put("/home/chaos.txt", payload, client.PutOpts{Resource: "disk1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Replicate("/home/chaos.txt", "disk2"); err != nil {
		t.Fatal(err)
	}

	// Readiness flips once the resource dies and its breaker opens.
	if code := probe(t, adminAddr, "/healthz"); code != http.StatusOK {
		t.Fatalf("pre-outage /healthz = %d, want 200", code)
	}

	inj.Target("disk1").Kill()
	data, err := cl.Get("/home/chaos.txt")
	if err != nil || string(data) != string(payload) {
		t.Fatalf("failover get = %q, %v", data, err)
	}
	if cl.Retries() == 0 {
		t.Fatal("get succeeded without retrying — outage not exercised")
	}
	id := cl.LastTrace()
	if id == 0 {
		t.Fatal("client recorded no trace ID")
	}

	// The trace op fans out to srb2, so the reply holds both hops.
	var rep wire.TraceReply
	err = cl.Call(wire.OpTrace, wire.TraceArgs{ID: id}, &rep)
	if err != nil {
		t.Fatal(err)
	}
	servers := map[string]bool{}
	events := map[string]bool{}
	for _, r := range rep.Spans {
		if r.Trace != id {
			t.Errorf("span %s belongs to trace %s, want %s", r.Span, r.Trace, id)
		}
		servers[r.Server] = true
		for _, ev := range r.Events {
			events[ev.Kind] = true
		}
	}
	if len(servers) < 2 || !servers["srb1"] || !servers["srb2"] {
		t.Errorf("trace covers servers %v, want srb1 and srb2", servers)
	}
	for _, want := range []string{obs.EventRetry, obs.EventBreakerTrip, obs.EventFailover} {
		if !events[want] {
			t.Errorf("trace is missing a %q event (have %v)", want, events)
		}
	}

	// The srb2 hop must be a child of an srb1 span — the failover is a
	// subtree, not a disconnected record.
	roots := obs.AssembleTree(rep.Spans)
	foundChild := false
	for _, root := range roots {
		if root.Server != "srb1" {
			continue
		}
		for _, c := range root.Children {
			if c.Server == "srb2" && c.Op == "get" {
				foundChild = true
			}
		}
	}
	if !foundChild {
		var tree strings.Builder
		obs.WriteTree(&tree, roots)
		t.Errorf("no srb2 get child under an srb1 root:\n%s", tree.String())
	}

	// Usage accounting: the put and the failed-over get are charged to
	// alice under /home, with the payload counted both directions.
	var urep wire.UsageReply
	err = cl.Call(wire.OpUsage, wire.UsageArgs{User: "alice", Collection: "/home"}, &urep)
	if err != nil {
		t.Fatal(err)
	}
	if len(urep.Entries) != 1 {
		t.Fatalf("usage entries = %+v, want exactly alice@/home", urep.Entries)
	}
	u := urep.Entries[0]
	if u.User != "alice" || u.Collection != "/home" {
		t.Fatalf("usage key = %s@%s", u.User, u.Collection)
	}
	if u.Ops < 2 {
		t.Errorf("usage ops = %d, want at least put+get", u.Ops)
	}
	if u.BytesIn < int64(len(payload)) || u.BytesOut < int64(len(payload)) {
		t.Errorf("usage bytes in/out = %d/%d, want >= %d each", u.BytesIn, u.BytesOut, len(payload))
	}
	if u.LastTrace == 0 {
		t.Error("usage entry carries no trace join key")
	}

	// The open disk1 breaker degrades readiness to 503.
	if code := probe(t, adminAddr, "/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("post-outage /healthz = %d, want 503", code)
	}
}

// probe fetches an admin path and returns just the status code.
func probe(t *testing.T, addr, path string) int {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// grepLines keeps only lines containing pat, for focused failure output.
func grepLines(s, pat string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, pat) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

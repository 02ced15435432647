package main

import (
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"gosrb/internal/acl"
	"gosrb/internal/auth"
	"gosrb/internal/client"
	"gosrb/internal/core"
	"gosrb/internal/faultnet"
	"gosrb/internal/mcat"
	"gosrb/internal/obs"
	"gosrb/internal/repair"
	"gosrb/internal/resilience"
	"gosrb/internal/server"
	"gosrb/internal/storage"
	"gosrb/internal/storage/memfs"
	"gosrb/internal/types"
	"gosrb/internal/wire"
)

// pollUntil spins on cond until it holds or the deadline passes —
// convergence tests assert on the steady state, not on timing.
func pollUntil(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// fetchBody fetches an admin path and returns status code plus body.
func fetchBody(t *testing.T, addr, path string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestChaosAsyncReplRepairScrub is the repair-engine chaos end-to-end:
// a logical resource with an async:1 policy loses one member before an
// ingest, so the deferred fan-out meets a dead resource. The repair
// engine must retry under backoff, trip the member's breaker, converge
// once the member revives, then survive silent at-rest corruption: the
// scrubber re-hashes the stored bytes, marks the divergent replica
// dirty and repairs it from a verified sibling. The end state is fully
// deterministic — every replica clean and byte-identical — which is
// what lets this run stably under -race -count=10.
func TestChaosAsyncReplRepairScrub(t *testing.T) {
	inj := faultnet.New(chaosSeed)

	cat := mcat.New("admin", "sdsc")
	cat.AddUser(types.User{Name: "alice", Domain: "sdsc"})
	cat.MkColl("/home", "admin")
	cat.SetACL("/home", "alice", acl.Write)

	b1 := core.New(cat, "srb1")
	members := []string{"d1", "d2", "d3"}
	mems := map[string]*memfs.FS{}
	for _, name := range members {
		mem := memfs.New()
		mems[name] = mem
		if err := b1.AddPhysicalResource("admin", name, types.ClassFileSystem, "memfs",
			inj.WrapDriver(name, mem)); err != nil {
			t.Fatal(err)
		}
	}
	if err := b1.AddLogicalResourcePolicy("admin", "lr", members, "async:1"); err != nil {
		t.Fatal(err)
	}
	b1.Breakers().SetConfig(resilience.BreakerConfig{Threshold: 2, Cooldown: 50 * time.Millisecond})

	authn := auth.New()
	authn.Register("alice", "alicepw")
	authn.Register("admin", "adminpw")
	s1 := server.New(b1, authn, server.Proxy)
	t.Cleanup(func() { s1.Close() })
	addr1, err := s1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	adminAddr := serveAdmin(t, s1)

	eng := repair.New(repair.Config{
		Workers:  2,
		Queue:    cat,
		Exec:     b1.RunRepairTask,
		Metrics:  b1.Metrics(),
		Breakers: b1.Breakers(),
		Backoff:  resilience.Policy{BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond, Jitter: 0.5},
		Poll:     5 * time.Millisecond,
		Server:   "srb1",
		Seed:     chaosSeed,
	})
	eng.AddJob("scrub", time.Hour, 0, func(sp *obs.Span) error {
		b1.ScrubSubtree("/", sp)
		return nil
	})
	b1.SetRepair(eng)
	eng.Start()
	t.Cleanup(eng.Stop)

	cl, err := client.Dial(addr1, "alice", "alicepw")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Phase 1 — kill d3, then ingest onto the async logical resource.
	// The write path lands one replica synchronously; the deferred
	// fan-out to d2 succeeds, the one to d3 keeps failing and must trip
	// the member breaker instead of hot-looping.
	inj.Target("d3").Kill()
	payload := []byte("async replication survives a dead member")
	if _, err := cl.Put("/home/async.txt", payload, client.PutOpts{Resource: "lr"}); err != nil {
		t.Fatal(err)
	}
	pollUntil(t, 5*time.Second, func() bool {
		return b1.Breakers().States()["resource.d3"] == resilience.Open
	}, "resource.d3 breaker to open")

	// The outage is visible: /healthz degrades (open breaker) and the
	// repair line reports the stuck backlog.
	code, body := fetchBody(t, adminAddr, "/healthz")
	if code != http.StatusServiceUnavailable {
		t.Errorf("/healthz during outage = %d, want 503:\n%s", code, body)
	}
	if !strings.Contains(body, "repair backlog=") {
		t.Errorf("/healthz missing repair backlog line:\n%s", body)
	}

	// Phase 2 — revive d3. After the breaker cooldown, a half-open
	// probe lets the queued task through and the grid converges: three
	// clean replicas, an empty queue, readiness restored.
	inj.Target("d3").Revive()
	pollUntil(t, 10*time.Second, func() bool {
		n, _ := cat.RepairBacklog()
		if n != 0 {
			return false
		}
		o, err := cat.GetObject("/home/async.txt")
		if err != nil || len(o.Replicas) != 3 {
			return false
		}
		for _, r := range o.Replicas {
			if r.Status != types.ReplicaClean {
				return false
			}
		}
		return true
	}, "async fan-out convergence after revival")
	pollUntil(t, 5*time.Second, func() bool {
		return probe(t, adminAddr, "/healthz") == http.StatusOK
	}, "readiness to recover")

	// Phase 3 — silent at-rest corruption on d2. The data path cannot
	// see it; `srb checksum` must, per replica.
	o, err := cat.GetObject("/home/async.txt")
	if err != nil {
		t.Fatal(err)
	}
	var d2path string
	for _, r := range o.Replicas {
		if r.Resource == "d2" {
			d2path = r.PhysicalPath
		}
	}
	if err := inj.Target("d2").CorruptAtRest(d2path, 7); err != nil {
		t.Fatal(err)
	}
	crep, err := cl.Checksum("/home/async.txt")
	if err != nil {
		t.Fatal(err)
	}
	corrupt := 0
	for _, v := range crep.Verdicts {
		if v.Verdict == "corrupt" {
			corrupt++
			if v.Resource != "d2" {
				t.Errorf("corrupt verdict on %s, want d2", v.Resource)
			}
		}
	}
	if corrupt != 1 {
		t.Fatalf("checksum verdicts = %+v, want exactly one corrupt", crep.Verdicts)
	}

	// The scrubber re-hashes, marks d2 dirty and repairs it from a
	// just-verified sibling.
	if err := eng.RunJob("scrub"); err != nil {
		t.Fatalf("scrub job: %v", err)
	}
	pollUntil(t, 10*time.Second, func() bool {
		n, _ := cat.RepairBacklog()
		if n != 0 {
			return false
		}
		o, err := cat.GetObject("/home/async.txt")
		if err != nil {
			return false
		}
		for _, r := range o.Replicas {
			if r.Status != types.ReplicaClean {
				return false
			}
		}
		return true
	}, "scrub convergence")

	// End state: zero dirty rows anywhere, every stored replica
	// byte-identical to the catalog checksum.
	for _, p := range cat.SubtreeObjects("/") {
		obj, err := cat.GetObject(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range obj.Replicas {
			if r.Status != types.ReplicaClean {
				t.Errorf("%s replica on %s = %v, want clean", p, r.Resource, r.Status)
			}
			data, err := storage.ReadAll(mems[r.Resource], r.PhysicalPath)
			if err != nil {
				t.Errorf("read %s on %s: %v", p, r.Resource, err)
				continue
			}
			if string(data) != string(payload) {
				t.Errorf("%s on %s diverged from payload", p, r.Resource)
			}
		}
	}
	crep, err = cl.Checksum("/home/async.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range crep.Verdicts {
		if v.Verdict != "ok" {
			t.Errorf("post-scrub verdict on %s = %s (%s), want ok", v.Resource, v.Verdict, v.Detail)
		}
	}

	// The story is on the trace ring: repair completions, breaker
	// activity around the dead member, and scrub divergence events.
	events := map[string]bool{}
	for _, r := range b1.Metrics().Traces().Recent(512) {
		for _, ev := range r.Events {
			events[ev.Kind] = true
		}
	}
	for _, want := range []string{obs.EventRepair, obs.EventScrub} {
		if !events[want] {
			t.Errorf("trace ring missing a %q event (have %v)", want, events)
		}
	}
	if !events[obs.EventBreakerTrip] && !events[obs.EventBreakerFast] {
		t.Errorf("trace ring missing breaker events (have %v)", events)
	}

	// The wire-level status matches: engine enabled, queue drained,
	// lifetime counters show both the failures and the completions.
	var srep wire.RepairStatusReply
	err = cl.Call(wire.OpRepairStatus, struct{}{}, &srep)
	if err != nil {
		t.Fatal(err)
	}
	if !srep.Enabled || !srep.Status.Running || srep.Status.Backlog != 0 {
		t.Errorf("repair status = %+v, want running with empty backlog", srep.Status)
	}
	if srep.Status.Done == 0 || srep.Status.Retries == 0 {
		t.Errorf("repair counters done=%d retries=%d, want both > 0", srep.Status.Done, srep.Status.Retries)
	}
}

// TestHealthzWedgedRepair pins the 503 contract for the repair engine:
// a non-empty queue with zero live workers is wedged and degrades
// readiness; an operator pause with the same backlog is intentional
// and does not.
func TestHealthzWedgedRepair(t *testing.T) {
	cat := mcat.New("admin", "sdsc")
	b := core.New(cat, "srb1")
	authn := auth.New()
	authn.Register("admin", "adminpw")
	s := server.New(b, authn, server.Proxy)
	t.Cleanup(func() { s.Close() })
	if _, err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	adminAddr := serveAdmin(t, s)

	eng := repair.New(repair.Config{
		Workers: 0, // nothing drains the queue
		Queue:   cat,
		Exec:    func(task types.RepairTask, sp *obs.Span) error { return nil },
		Metrics: b.Metrics(),
		Server:  "srb1",
		Seed:    1,
	})
	b.SetRepair(eng)
	eng.Start()
	t.Cleanup(eng.Stop)

	code, body := fetchBody(t, adminAddr, "/healthz")
	if code != http.StatusOK || !strings.Contains(body, "repair backlog=0") {
		t.Fatalf("idle /healthz = %d:\n%s", code, body)
	}

	cat.EnqueueRepair(types.RepairTask{Path: "/stuck", Resource: "r1", Kind: "replicate"})
	code, body = fetchBody(t, adminAddr, "/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "repair engine wedged") {
		t.Fatalf("wedged /healthz = %d, want 503 with wedged line:\n%s", code, body)
	}

	eng.Pause()
	code, body = fetchBody(t, adminAddr, "/healthz")
	if code != http.StatusOK || !strings.Contains(body, "paused") {
		t.Fatalf("paused /healthz = %d, want 200 with paused note:\n%s", code, body)
	}
}

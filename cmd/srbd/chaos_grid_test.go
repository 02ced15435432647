package main

import (
	"testing"
	"time"

	"gosrb/internal/acl"
	"gosrb/internal/auth"
	"gosrb/internal/client"
	"gosrb/internal/core"
	"gosrb/internal/faultnet"
	"gosrb/internal/mcat"
	"gosrb/internal/obs"
	"gosrb/internal/server"
	"gosrb/internal/storage/memfs"
	"gosrb/internal/types"
	"gosrb/internal/wire"
)

// gridZone is a three-server zone with fault injection on every disk:
// the smallest deployment where a grid snapshot is more than a pair and
// a dead member leaves a visible hole.
type gridZone struct {
	inj     *faultnet.Injector
	brokers [3]*core.Broker
	servers [3]*server.Server
	addrs   [3]string
}

func newGridZone(t *testing.T) *gridZone {
	t.Helper()
	z := &gridZone{inj: faultnet.New(chaosSeed)}
	cat := mcat.New("admin", "sdsc")
	cat.AddUser(types.User{Name: "alice", Domain: "sdsc"})
	cat.MkColl("/home", "admin")
	cat.SetACL("/home", "alice", acl.Write)
	authn := auth.New()
	authn.Register("alice", "alicepw")
	authn.Register("admin", "adminpw")

	names := [3]string{"srb1", "srb2", "srb3"}
	disks := [3]string{"disk1", "disk2", "disk3"}
	for i := range names {
		b := core.New(cat, names[i])
		if err := b.AddPhysicalResource("admin", disks[i], types.ClassFileSystem, "memfs",
			z.inj.WrapDriver(disks[i], memfs.New())); err != nil {
			t.Fatal(err)
		}
		z.brokers[i] = b
		z.servers[i] = server.New(b, authn, server.Proxy)
		addr, err := z.servers[i].Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		z.addrs[i] = addr
	}
	for i := range names {
		for j := range names {
			if i != j {
				z.servers[i].AddPeer(names[j], z.addrs[j], "zone-secret")
			}
		}
	}
	t.Cleanup(func() {
		for _, s := range z.servers {
			s.Close()
		}
	})
	return z
}

// put writes one object through the given member and closes the client
// before returning, so a later member kill has no connection to drain.
func (z *gridZone) put(t *testing.T, member int, path, resource string) {
	t.Helper()
	cl, err := client.Dial(z.addrs[member], "alice", "alicepw")
	if err != nil {
		t.Fatal(err)
	}
	_, err = cl.Put(path, []byte("grid chaos"), client.PutOpts{Resource: resource})
	cl.Close()
	if err != nil {
		t.Fatal(err)
	}
}

// TestChaosGridSnapshotWithDeadMember is the grid-console end-to-end: a
// three-server zone produces traffic on every member, then one member
// dies. A deadline-bounded grid gather from a survivor must return a
// merged snapshot that flags the dead member unreachable and still
// aggregates the survivors — a partial answer, visibly partial, on
// time.
func TestChaosGridSnapshotWithDeadMember(t *testing.T) {
	z := newGridZone(t)
	now := time.Now()
	for _, b := range z.brokers {
		b.Metrics().CaptureRollup(now.Add(-5 * time.Minute))
	}
	z.put(t, 0, "/home/a.dat", "disk1")
	z.put(t, 1, "/home/b.dat", "disk2")
	z.put(t, 2, "/home/c.dat", "disk3")

	// srb3 dies. The gather must not hang on it: one failed dial, one
	// unreachable slot.
	z.servers[2].Close()

	cl, err := client.Dial(z.addrs[0], "alice", "alicepw")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	cl.SetTimeout(5 * time.Second)
	start := time.Now()
	var rep wire.GridStatReply
	err = cl.Call(wire.OpGridStat, wire.GridStatArgs{WindowSeconds: 300}, &rep)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("gather took %s, want within the 5s deadline", elapsed)
	}
	if len(rep.Members) != 3 {
		t.Fatalf("members = %+v, want all three slots kept", rep.Members)
	}
	var unreachable []string
	for _, m := range rep.Members {
		if m.Unreachable {
			unreachable = append(unreachable, m.Server)
			if m.Err == "" {
				t.Errorf("unreachable member %s carries no error", m.Server)
			}
		} else if len(m.Window.Ops) == 0 {
			t.Errorf("live member %s reports no window activity", m.Server)
		}
	}
	if len(unreachable) != 1 || unreachable[0] != "srb3" {
		t.Fatalf("unreachable = %v, want exactly srb3", unreachable)
	}
	// The merged aggregate holds the two survivors' ingests.
	if o := rep.Grid.Ops["server.ingest"]; o.Count != 2 {
		t.Errorf("partial grid ingest count = %d, want 2 (survivors only)", o.Count)
	}
}

// TestChaosLatencySpikeTripsSLO injects a deterministic latency spike
// under every read on srb1's disk and drives the SLO evaluator by hand
// (explicit clock, no scheduler): the declared p99 objective must fire
// into the alert log, surface over the wire alerts op, and resolve once
// the spike stops and the window moves past it. The spike (200 ms) and
// the objective (50 ms) sit far above an unspiked get, even one slowed
// by the race detector on a shared host, which has landed in the 4–8 ms
// bucket: with a 5 ms objective and a 20 ms spike that one get kept the
// rule from resolving.
func TestChaosLatencySpikeTripsSLO(t *testing.T) {
	z := newGridZone(t)
	now := time.Now()
	b1 := z.brokers[0]
	b1.Metrics().CaptureRollup(now.Add(-5 * time.Minute))

	rules, err := obs.ParseSLORules("get p99 < 50ms over 5m")
	if err != nil {
		t.Fatal(err)
	}
	ev := obs.NewSLOEvaluator(b1.Metrics(), rules)
	b1.SetSLO(ev)

	z.put(t, 0, "/home/slow.dat", "disk1")
	// Probability 1.0: every disk1 read pays the spike, so the windowed
	// p99 breaches the 50ms objective on every run of the chaos loop.
	z.inj.Target("disk1").SpikeLatency(200*time.Millisecond, 1.0)

	cl, err := client.Dial(z.addrs[0], "alice", "alicepw")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for i := 0; i < 8; i++ {
		if _, err := cl.Get("/home/slow.dat"); err != nil {
			t.Fatal(err)
		}
	}

	st := ev.Evaluate(now)
	if len(st) != 1 || !st[0].Violating {
		t.Fatalf("spiked eval = %+v, want the p99 rule violating", st)
	}
	if st[0].BurnPct < 100 {
		t.Errorf("burn = %v%%, want the budget blown (>= 100)", st[0].BurnPct)
	}
	alerts := ev.AlertLog().Recent(0)
	if len(alerts) != 1 || !alerts[0].Firing || alerts[0].Rule != "get_p99_5m" {
		t.Fatalf("alert log = %+v, want one FIRED get_p99_5m", alerts)
	}
	if b1.Metrics().Gauge("slo.get_p99_5m.violating").Value() != 1 {
		t.Error("violation gauge not set")
	}

	// The standing is visible over the wire, where `srb alerts` reads.
	var rep wire.AlertsReply
	err = cl.Call(wire.OpAlerts, struct{}{}, &rep)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Enabled || len(rep.Rules) != 1 || !rep.Rules[0].Violating || len(rep.Alerts) != 1 {
		t.Fatalf("wire alerts = %+v, want the firing rule and its transition", rep)
	}

	// Spike ends; the breach ages out of the window and the rule
	// resolves with a second transition.
	z.inj.Target("disk1").Clear()
	b1.Metrics().CaptureRollup(now)
	for i := 0; i < 8; i++ {
		if _, err := cl.Get("/home/slow.dat"); err != nil {
			t.Fatal(err)
		}
	}
	st = ev.Evaluate(now.Add(5 * time.Minute))
	if st[0].Violating {
		t.Fatalf("post-spike eval = %+v, want resolved", st[0])
	}
	alerts = ev.AlertLog().Recent(0)
	if len(alerts) != 2 || alerts[1].Firing {
		t.Fatalf("alert log = %+v, want FIRED then RESOLVED", alerts)
	}
}

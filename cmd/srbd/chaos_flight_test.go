package main

import (
	"encoding/json"
	"testing"
	"time"

	"gosrb/internal/client"
	"gosrb/internal/obs"
	"gosrb/internal/wire"
)

// TestChaosFlightRecorder is the flight-recorder end-to-end: a seeded
// latency spike trips the p99 SLO rule, the FIRED transition captures
// an incident bundle (profiles, span trees, window stats), and the
// bundle is retrievable over the wire. Then the daemon "restarts" —
// telemetry is flushed, a fresh registry restores from disk — and the
// windowed history over the pre-restart interval, the alert log and the
// peer transfer table all survive. Deterministic: explicit clocks, a
// 1.0-probability spike and a synchronous on-fire hook, so the 10x
// -race chaos loop replays it exactly.
func TestChaosFlightRecorder(t *testing.T) {
	z := newGridZone(t)
	now := time.Now()
	b1 := z.brokers[0]
	b1.Metrics().CaptureRollup(now.Add(-5 * time.Minute))

	dir := t.TempDir()
	telem, err := obs.OpenTelemetryStore(dir, "srb1", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := obs.NewIncidentRecorder(obs.IncidentConfig{
		Dir:        dir + "/incidents",
		Server:     "srb1",
		Registry:   b1.Metrics(),
		MinGap:     time.Minute,
		ProfileDur: 10 * time.Millisecond,
		Extra: func() map[string][]byte {
			b, _ := json.Marshal(b1.Breakers().States())
			return map[string][]byte{"breakers.json": b}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	b1.SetIncidents(rec)

	rules, err := obs.ParseSLORules("get p99 < 5ms over 5m")
	if err != nil {
		t.Fatal(err)
	}
	ev := obs.NewSLOEvaluator(b1.Metrics(), rules)
	b1.SetSLO(ev)
	// Synchronous on-fire capture: the daemons run this on a goroutine
	// (the CPU profile sleeps), but the test wants the bundle on disk the
	// moment Evaluate returns.
	var fired []obs.IncidentMeta
	ev.SetOnFire(func(at time.Time, rule obs.SLORule, alert obs.Alert) {
		m, err := rec.Capture(at, rule.Name, "slo-fired", alert.Detail, rule.Window)
		if err != nil {
			t.Errorf("on-fire capture: %v", err)
			return
		}
		fired = append(fired, m)
	})

	z.put(t, 0, "/home/slow.dat", "disk1")
	z.inj.Target("disk1").SpikeLatency(20*time.Millisecond, 1.0)
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
	if len(fired) != 1 {
		t.Fatalf("on-fire captured %d bundles, want exactly 1", len(fired))
	}
	// A second violating evaluation within MinGap must not double up.
	if ev.Evaluate(now.Add(time.Second)); len(fired) != 1 {
		t.Fatalf("re-evaluation grew the bundle count to %d (FIRED-only hook broken)", len(fired))
	}

	// The bundle is complete and served over the wire ops `srb incident
	// list` / `srb incident get` read.
	var lrep wire.IncidentsReply
	err = cl.Call(wire.OpIncidents, struct{}{}, &lrep)
	if err != nil {
		t.Fatal(err)
	}
	if !lrep.Enabled || len(lrep.Incidents) != 1 || lrep.Incidents[0].ID != fired[0].ID {
		t.Fatalf("wire incident index = %+v, want the captured bundle", lrep)
	}
	grep, err := cl.IncidentGet(fired[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	if grep.Meta.Rule != "get_p99_5m" || grep.Meta.Reason != "slo-fired" {
		t.Fatalf("bundle meta = %+v", grep.Meta)
	}
	for _, want := range []string{"cpu.pprof", "heap.pprof", "spans.txt", "window.json", "breakers.json"} {
		if len(grep.Files[want]) == 0 {
			t.Errorf("bundle missing %s (have %d files)", want, len(grep.Files))
		}
	}
	var ws obs.WindowStats
	if err := json.Unmarshal(grep.Files["window.json"], &ws); err != nil {
		t.Fatalf("window.json: %v", err)
	}
	if o := ws.Ops["server.get"]; o.Count != 8 || o.P99Micros < 5000 {
		t.Errorf("bundle window = %d gets p99 %vµs, want 8 gets over the 5ms objective", o.Count, o.P99Micros)
	}

	// Manual capture over the wire (a different rule slot, so the SLO
	// gap does not suppress it).
	crep, err := cl.IncidentCapture("operator drill")
	if err != nil {
		t.Fatal(err)
	}
	if crep.Meta.Rule != "manual" || crep.Meta.Detail != "operator drill" {
		t.Fatalf("manual capture meta = %+v", crep.Meta)
	}

	// The observatory saw the spiked disk reads (resource rows ride the
	// replica read path) and answers over the wire.
	var prep wire.PeersReply
	err = cl.Call(wire.OpPeers, struct{}{}, &prep)
	if err != nil {
		t.Fatal(err)
	}
	var disk1 *obs.PeerStat
	for i := range prep.Peers {
		if prep.Peers[i].Resource == "disk1" && prep.Peers[i].Peer == "" {
			disk1 = &prep.Peers[i]
		}
	}
	if disk1 == nil || disk1.Ops < 8 {
		t.Fatalf("peer observatory = %+v, want a disk1 resource row with >= 8 reads", prep.Peers)
	}
	if disk1.EWMALatMicros < 5000 {
		t.Errorf("disk1 EWMA latency %vµs, want the 20ms spike visible", disk1.EWMALatMicros)
	}

	// "Restart": capture the tail, flush, close; restore into a fresh
	// registry. The pre-restart window, alert history and peer table must
	// all come back.
	b1.Metrics().CaptureRollup(now)
	if err := telem.Flush(b1.Metrics(), ev.AlertLog(), now); err != nil {
		t.Fatal(err)
	}
	if err := telem.Close(b1.Metrics(), ev.AlertLog(), now); err != nil {
		t.Fatal(err)
	}
	telem2, err := obs.OpenTelemetryStore(dir, "srb1", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	reg2 := obs.NewRegistry()
	snap, err := telem2.Restore(reg2)
	if err != nil {
		t.Fatal(err)
	}
	rws := reg2.WindowAt(now, 5*time.Minute)
	if o := rws.Ops["server.get"]; o.Count != 8 || o.P99Micros < 5000 {
		t.Fatalf("restored window = %d gets p99 %vµs, want the pre-restart 8 spiked gets", o.Count, o.P99Micros)
	}
	if len(snap.Alerts) == 0 || !snap.Alerts[0].Firing || snap.Alerts[0].Rule != "get_p99_5m" {
		t.Fatalf("restored alerts = %+v, want the FIRED transition first", snap.Alerts)
	}
	var rdisk1 *obs.PeerStat
	peers := reg2.Peers().Snapshot()
	for i := range peers {
		if peers[i].Resource == "disk1" && peers[i].Peer == "" {
			rdisk1 = &peers[i]
		}
	}
	if rdisk1 == nil || rdisk1.Ops != disk1.Ops || rdisk1.EWMALatMicros != disk1.EWMALatMicros {
		t.Fatalf("restored peer table = %+v, want the disk1 row intact (%+v)", peers, disk1)
	}
	// The incident index survives restarts by construction (it is the
	// directory listing).
	rec2, err := obs.NewIncidentRecorder(obs.IncidentConfig{Dir: dir + "/incidents", Server: "srb1", Registry: reg2})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rec2.List()); got != 2 {
		t.Fatalf("post-restart incident index holds %d bundles, want 2", got)
	}
}

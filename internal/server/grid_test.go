package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"gosrb/internal/client"
	"gosrb/internal/obs"
	"gosrb/internal/wire"
)

// gridActivity backdates both registries' rollup baselines and then
// puts one object through each server, so a 5m window query sees the
// traffic on both members.
func gridActivity(t *testing.T, z *zone) {
	t.Helper()
	now := time.Now()
	z.b1.Metrics().CaptureRollup(now.Add(-5 * time.Minute))
	z.b2.Metrics().CaptureRollup(now.Add(-5 * time.Minute))
	// Server.Close waits for live connections, so these clients are
	// closed by hand rather than via the cleanup-scoped helper — some
	// callers kill a member mid-test.
	for _, put := range []struct{ addr, path, res string }{
		{z.addr1, "/home/g1.dat", "disk1"},
		{z.addr2, "/home/g2.dat", "disk2"},
	} {
		cl, err := client.Dial(put.addr, "alice", "alicepw")
		if err != nil {
			t.Fatal(err)
		}
		_, err = cl.Put(put.path, []byte("grid"), client.PutOpts{Resource: put.res})
		cl.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestGridStatFanout(t *testing.T) {
	z := newZone(t, Proxy)
	gridActivity(t, z)
	cl := z.client(z.addr1, "alice", "alicepw")
	var rep wire.GridStatReply
	err := cl.Call(wire.OpGridStat, wire.GridStatArgs{WindowSeconds: 300}, &rep)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Server != "srb1" || rep.WindowSeconds != 300 {
		t.Errorf("reply envelope = %q/%v, want srb1/300", rep.Server, rep.WindowSeconds)
	}
	if len(rep.Members) != 2 {
		t.Fatalf("members = %+v, want srb1 and srb2", rep.Members)
	}
	byName := map[string]wire.GridMember{}
	for _, m := range rep.Members {
		byName[m.Server] = m
	}
	for _, name := range []string{"srb1", "srb2"} {
		m, ok := byName[name]
		if !ok || m.Unreachable {
			t.Fatalf("member %s = %+v, want reachable", name, m)
		}
		if len(m.Window.Ops) == 0 {
			t.Errorf("member %s window has no ops", name)
		}
	}
	// The merged grid view sums both members' ingests.
	o := rep.Grid.Ops["server.ingest"]
	if o.Count != 2 {
		t.Errorf("grid server.ingest count = %d, want 2 (one per member)", o.Count)
	}
	if o.P99Micros <= 0 {
		t.Errorf("grid p99 = %v, want recomputed from merged buckets", o.P99Micros)
	}
}

func TestGridStatDeadPeerIsPartial(t *testing.T) {
	z := newZone(t, Proxy)
	gridActivity(t, z)
	z.s2.Close()
	cl := z.client(z.addr1, "alice", "alicepw")
	var rep wire.GridStatReply
	err := cl.Call(wire.OpGridStat, wire.GridStatArgs{WindowSeconds: 300}, &rep)
	if err != nil {
		t.Fatal(err) // a dead member must not fail the gather
	}
	if len(rep.Members) != 2 {
		t.Fatalf("members = %+v, want the dead peer to keep its slot", rep.Members)
	}
	var local, dead wire.GridMember
	for _, m := range rep.Members {
		if m.Server == "srb1" {
			local = m
		} else {
			dead = m
		}
	}
	if local.Unreachable {
		t.Errorf("local member = %+v, want reachable", local)
	}
	if !dead.Unreachable || dead.Err == "" {
		t.Errorf("dead member = %+v, want Unreachable with an error", dead)
	}
	// The aggregate is partial but present: srb1's traffic only.
	if o := rep.Grid.Ops["server.ingest"]; o.Count != 1 {
		t.Errorf("partial grid ingest count = %d, want 1", o.Count)
	}
}

func TestGridStatLocalOnly(t *testing.T) {
	z := newZone(t, Proxy)
	gridActivity(t, z)
	cl := z.client(z.addr1, "alice", "alicepw")
	var rep wire.GridStatReply
	err := cl.Call(wire.OpGridStat, wire.GridStatArgs{WindowSeconds: 300, LocalOnly: true}, &rep)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Members) != 1 || rep.Members[0].Server != "srb1" {
		t.Fatalf("local-only members = %+v, want just srb1", rep.Members)
	}
}

func TestGridStatStaleFlag(t *testing.T) {
	z := newZone(t, Proxy)
	// No backdated rollups: retention covers seconds, not 6 hours, so
	// every member must self-report stale.
	cl := z.client(z.addr1, "alice", "alicepw")
	var rep wire.GridStatReply
	err := cl.Call(wire.OpGridStat, wire.GridStatArgs{WindowSeconds: 21600}, &rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range rep.Members {
		if m.Unreachable {
			continue
		}
		if !m.Stale {
			t.Errorf("member %s covered %.0fs of %.0fs but not flagged stale",
				m.Server, m.Window.CoveredSeconds, m.Window.WindowSeconds)
		}
	}
}

func TestAlertsOp(t *testing.T) {
	z := newZone(t, Proxy)
	cl := z.client(z.addr1, "alice", "alicepw")
	// No evaluator declared: the op reports disabled, not an error.
	var rep wire.AlertsReply
	err := cl.Call(wire.OpAlerts, struct{}{}, &rep)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Enabled {
		t.Errorf("alerts with no rules = %+v, want disabled", rep)
	}

	rules, err := obs.ParseSLORules("error_rate < 1% over 5m")
	if err != nil {
		t.Fatal(err)
	}
	ev := obs.NewSLOEvaluator(z.b1.Metrics(), rules)
	z.b1.SetSLO(ev)
	now := time.Now()
	z.b1.Metrics().CaptureRollup(now.Add(-5 * time.Minute))
	z.b1.Metrics().Op("server.get").Observe(time.Millisecond, errFake)
	ev.Evaluate(now)

	err = cl.Call(wire.OpAlerts, struct{}{}, &rep)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Enabled || len(rep.Rules) != 1 || !rep.Rules[0].Violating {
		t.Fatalf("alerts = %+v, want one violating rule", rep)
	}
	if len(rep.Alerts) != 1 || !rep.Alerts[0].Firing {
		t.Fatalf("alert log = %+v, want the FIRED transition", rep.Alerts)
	}
}

// TestAdminGridAndAlerts exercises the HTTP faces of the grid console:
// /grid (federated JSON snapshot, and this daemon's window as text),
// /alerts and the SLO warn lines on /healthz.
func TestAdminGridAndAlerts(t *testing.T) {
	z := newZone(t, Proxy)
	gridActivity(t, z)
	rules, err := obs.ParseSLORules("ingest p99 < 1ns over 5m") // impossible objective: always firing
	if err != nil {
		t.Fatal(err)
	}
	ev := obs.NewSLOEvaluator(z.b1.Metrics(), rules)
	z.b1.SetSLO(ev)
	ev.Evaluate(time.Now())

	// The endpoint gathers as the daemon's administrator, here not the
	// default name.
	web := httptest.NewServer(NewAdminHandler(z.s1.AdminEnv("root")))
	t.Cleanup(web.Close)
	addr := web.Listener.Addr().String()
	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, body %s", path, resp.StatusCode, body)
		}
		return string(body)
	}

	var rep wire.GridStatReply
	if err := json.Unmarshal([]byte(get("/grid?window=5m")), &rep); err != nil {
		t.Fatalf("/grid JSON: %v", err)
	}
	if len(rep.Members) != 2 || rep.Grid.Ops["server.ingest"].Count != 2 {
		t.Errorf("/grid = %+v, want both members merged", rep)
	}
	// The fan-out reached srb2 on behalf of that administrator, not of a
	// hard-coded "admin" its usage table would file under a ghost name.
	forwarded := map[string]bool{}
	for _, u := range z.b2.Metrics().Usage().Snapshot() {
		forwarded[u.User] = true
	}
	if !forwarded["root"] || forwarded["admin"] {
		t.Errorf("srb2 accounted the gather to %v, want root and no admin", forwarded)
	}

	var alerts wire.AlertsReply
	if err := json.Unmarshal([]byte(get("/alerts")), &alerts); err != nil {
		t.Fatalf("/alerts JSON: %v", err)
	}
	if !alerts.Enabled || len(alerts.Alerts) == 0 {
		t.Errorf("/alerts = %+v, want the firing transition", alerts)
	}

	win := get("/grid?grid=0&window=5m&format=text")
	for _, want := range []string{"window: 300s", "p99(us)", "server.ingest"} {
		if !strings.Contains(win, want) {
			t.Errorf("/grid?grid=0&window=5m&format=text missing %q:\n%s", want, win)
		}
	}
	if resp, err := http.Get("http://" + addr + "/grid?window=bogus"); err == nil {
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad window status = %d, want 400", resp.StatusCode)
		}
		resp.Body.Close()
	}

	// A violating SLO warns on /healthz but never degrades it: probes
	// must not restart a server for missing a latency objective.
	hz := get("/healthz")
	if !strings.Contains(hz, "ok srb1") {
		t.Errorf("/healthz = %q, want ok despite the firing SLO", hz)
	}
	if !strings.Contains(hz, "warn: slo") {
		t.Errorf("/healthz = %q, want an slo warn line", hz)
	}
}

var errFake = fakeErr{}

type fakeErr struct{}

func (fakeErr) Error() string { return "injected failure" }

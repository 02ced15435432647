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
	"gosrb/internal/server"
	"gosrb/internal/storage/memfs"
	"gosrb/internal/types"
	"gosrb/internal/wire"
)

// TestChaosPhaseAttribution is the latency-decomposition end-to-end: a
// seeded latency spike in exactly one phase (the storage driver) must be
// attributed to that phase — and no other — by every surface built on
// the decomposition: the span waterfall (`srb why`), the windowed grid
// fan-out (`srb top -phases -grid`), the admin /phases JSON, and the
// OpenMetrics exemplars joining tail buckets back to the trace. Rides
// the 10x -race chaos loop (make test-faults).
func TestChaosPhaseAttribution(t *testing.T) {
	const spike = 5 * time.Millisecond
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

	adminAddr := serveAdmin(t, s1)

	cl, err := client.Dial(addr1, "alice", "alicepw")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	clientReg := obs.NewRegistry()
	clientReg.SetExemplarThreshold(0)
	cl.SetMetrics(clientReg)

	if _, err := cl.Put("/home/slow.txt", []byte("spiked payload"), client.PutOpts{Resource: "disk1"}); err != nil {
		t.Fatal(err)
	}

	// The seeded fault: every disk1 driver op stalls 5ms. Nothing else
	// in the path is slowed, so the decomposition must pin the slowdown
	// on storage.read and not on queue wait, catalog lookup, or the
	// federation.
	inj.Target("disk1").SpikeLatency(spike, 1.0)
	const gets = 5
	for i := 0; i < gets; i++ {
		if data, err := cl.Get("/home/slow.txt"); err != nil || string(data) != "spiked payload" {
			t.Fatalf("get %d = %q, %v", i, data, err)
		}
	}
	id := cl.LastTrace()
	if id == "" {
		t.Fatal("client recorded no trace ID")
	}

	// --- srb why: the span waterfall attributes the spike. ---
	var rep wire.TraceReply
	err = cl.Call(wire.OpTrace, wire.TraceArgs{ID: id}, &rep)
	if err != nil {
		t.Fatal(err)
	}
	var get *obs.SpanNode
	for _, n := range obs.AssembleTree(rep.Spans) {
		if n.Op == "get" && n.Server == "srb1" {
			get = n
		}
	}
	if get == nil {
		t.Fatalf("no srb1 get span in trace %s (%d spans)", id, len(rep.Spans))
	}
	// Acceptance: top-level phases sum to the span's wall time within 5%.
	sum := obs.PhaseSum(get.Events)
	if slack := get.Micros / 20; sum < get.Micros-slack || sum > get.Micros+slack {
		t.Errorf("phase sum %dus vs span %dus: off by more than 5%%", sum, get.Micros)
	}
	phases := map[string]int64{}
	for _, ev := range get.Events {
		if ev.Kind == obs.EventPhase {
			phases[ev.Detail] += ev.DurMicros
		}
	}
	read := phases[obs.PhaseStorageRead]
	if read < spike.Microseconds() {
		t.Errorf("storage.read %dus, want >= the injected %v", read, spike)
	}
	for name, d := range phases {
		if name != obs.PhaseStorageRead && name != obs.PhaseDispatch && d > read {
			t.Errorf("spike misattributed: %s (%dus) > storage.read (%dus)", name, d, read)
		}
	}
	if phases[obs.PhaseDispatch] < read {
		t.Errorf("dispatch (%dus) does not contain its storage.read sub-phase (%dus)",
			phases[obs.PhaseDispatch], read)
	}
	var waterfall strings.Builder
	if err := obs.WriteWaterfall(&waterfall, obs.AssembleTree(rep.Spans)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(waterfall.String(), "storage.read") {
		t.Errorf("waterfall missing the spiked phase:\n%s", waterfall.String())
	}

	// --- srb top -phases -grid: the windowed fan-out agrees. ---
	var grid wire.GridStatReply
	err = cl.Call(wire.OpGridStat, wire.GridStatArgs{WindowSeconds: 60}, &grid)
	if err != nil {
		t.Fatal(err)
	}
	rows := obs.PhaseRows(grid.Grid.Ops)
	var readRow, lookupRow *obs.PhaseRow
	for i := range rows {
		r := &rows[i]
		if r.Family != "server" || r.Op != "get" {
			continue
		}
		switch r.Phase {
		case obs.PhaseStorageRead:
			readRow = r
		case obs.PhaseMCATLookup:
			lookupRow = r
		}
	}
	if readRow == nil {
		t.Fatalf("grid window has no server.get storage.read row: %+v", rows)
	}
	if readRow.Count < gets || readRow.TotalMicros < int64(gets)*spike.Microseconds() {
		t.Errorf("grid storage.read count=%d total=%dus, want >= %d gets of %v",
			readRow.Count, readRow.TotalMicros, gets, spike)
	}
	if lookupRow != nil && lookupRow.TotalMicros > readRow.TotalMicros {
		t.Errorf("grid misattributes spike to mcat.lookup (%dus) over storage.read (%dus)",
			lookupRow.TotalMicros, readRow.TotalMicros)
	}

	// --- the client side of the path decomposed too. ---
	mux := clientReg.Op("phase.client.get." + obs.PhaseMuxInflight).Snapshot()
	if mux.Count < gets {
		t.Errorf("client mux.inflight phase count = %d, want >= %d", mux.Count, gets)
	}
	if ser := clientReg.Op("phase.client.get." + obs.PhaseSerialize).Snapshot(); ser.Count < gets {
		t.Errorf("client serialize phase count = %d, want >= %d", ser.Count, gets)
	}

	// --- admin surfaces: /phases JSON and OpenMetrics exemplars. ---
	phasesJSON := fetch(t, adminAddr, "/phases?window=1m")
	if !strings.Contains(phasesJSON, obs.PhaseStorageRead) || !strings.Contains(phasesJSON, `"ExemplarMicros"`) {
		t.Errorf("/phases missing decomposition:\n%s", phasesJSON)
	}
	om := fetch(t, adminAddr, "/metrics?format=openmetrics")
	if !strings.HasSuffix(om, "# EOF\n") {
		t.Error("openmetrics scrape not EOF-terminated")
	}
	// The spiked gets ran >= 10ms, over the 1ms default threshold: some
	// phase bucket must join back to a trace.
	if !strings.Contains(om, "srb_phase_server_get_dispatch_storage_read_duration_seconds_bucket") ||
		!strings.Contains(om, `# {trace_id="`) {
		t.Errorf("openmetrics missing phase histogram exemplars:\n%s",
			grepLines(om, "storage_read"))
	}
}

// fetch GETs an admin path and returns the body.
func fetch(t *testing.T, addr, path string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

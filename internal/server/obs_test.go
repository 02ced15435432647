package server

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"gosrb/internal/audit"
	"gosrb/internal/client"
	"gosrb/internal/obs"
	"gosrb/internal/wire"
)

// traceIDs collects the trace IDs recorded for op on one server.
func traceIDs(s *Server, op string) map[string]bool {
	out := make(map[string]bool)
	for _, rec := range s.broker.Metrics().Traces().Recent(0) {
		if rec.Op == op {
			out[rec.Trace] = true
		}
	}
	return out
}

// TestTraceSpansFederation proves end-to-end trace propagation: a Get
// served by proxy must appear under the same trace ID in the origin
// server's span records and in the owning peer's.
func TestTraceSpansFederation(t *testing.T) {
	z := newZone(t, Proxy)
	cl := z.client(z.addr1, "alice", "alicepw")
	if _, err := cl.Put("/home/traced.dat", []byte("follow me"), client.PutOpts{Resource: "disk2"}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get("/home/traced.dat"); err != nil {
		t.Fatal(err)
	}
	ids1 := traceIDs(z.s1, "get")
	ids2 := traceIDs(z.s2, "get")
	if len(ids1) == 0 || len(ids2) == 0 {
		t.Fatalf("missing get spans: srb1=%d srb2=%d", len(ids1), len(ids2))
	}
	shared := false
	for id := range ids1 {
		if ids2[id] {
			shared = true
			break
		}
	}
	if !shared {
		t.Errorf("no shared trace ID across the proxy hop: srb1=%v srb2=%v", ids1, ids2)
	}
}

// TestTraceSpansRedirect checks the other federation mode: the client
// keeps its trace ID when it reconnects to the owning server, so both
// servers record the same ID even though the bytes never proxied.
func TestTraceSpansRedirect(t *testing.T) {
	z := newZone(t, Redirect)
	cl2 := z.client(z.addr2, "alice", "alicepw")
	if _, err := cl2.Put("/home/rt.dat", []byte("x"), client.PutOpts{Resource: "disk2"}); err != nil {
		t.Fatal(err)
	}
	cl1 := z.client(z.addr1, "alice", "alicepw")
	if _, err := cl1.Get("/home/rt.dat"); err != nil {
		t.Fatal(err)
	}
	ids1 := traceIDs(z.s1, "get")
	ids2 := traceIDs(z.s2, "get")
	shared := false
	for id := range ids1 {
		if ids2[id] {
			shared = true
		}
	}
	if !shared {
		t.Errorf("redirect should keep the trace ID: srb1=%v srb2=%v", ids1, ids2)
	}
}

// TestOpStatsOverWire drives a mix of operations and checks the
// telemetry snapshot the OpStats wire op returns: per-op counts and
// quantiles, per-driver byte totals, and the audit-drop gauge.
func TestOpStatsOverWire(t *testing.T) {
	z := newZone(t, Proxy)
	// A tiny audit ring forces wraparound so drops show up in the gauge.
	z.cat.Audit = audit.New(4)
	cl := z.client(z.addr1, "alice", "alicepw")
	payload := []byte("telemetry payload")
	for i := 0; i < 5; i++ {
		path := "/home/obs" + string(rune('a'+i)) + ".dat"
		if _, err := cl.Put(path, payload, client.PutOpts{Resource: "disk1"}); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Get(path); err != nil {
			t.Fatal(err)
		}
	}
	var st wire.OpStatsReply
	err := cl.Call(wire.OpOpStats, struct{}{}, &st)
	if err != nil {
		t.Fatal(err)
	}
	if st.Server != "srb1" {
		t.Errorf("server = %q", st.Server)
	}
	s := st.Snapshot
	for _, op := range []string{"server.get", "server.ingest", "broker.get", "broker.ingest"} {
		o, ok := s.Ops[op]
		if !ok || o.Count < 5 {
			t.Errorf("op %s count = %+v, want >= 5", op, o)
		}
		if o.Count > 0 && o.P50Micros <= 0 {
			t.Errorf("op %s has no latency quantiles: %+v", op, o)
		}
	}
	wantBytes := int64(5 * len(payload))
	if got := s.Counters["storage.disk1.bytes_in"]; got < wantBytes {
		t.Errorf("disk1 bytes_in = %d, want >= %d", got, wantBytes)
	}
	if got := s.Counters["storage.disk1.bytes_out"]; got < wantBytes {
		t.Errorf("disk1 bytes_out = %d, want >= %d", got, wantBytes)
	}
	drops, ok := s.Gauges["audit.dropped"]
	if !ok {
		t.Fatal("audit.dropped gauge missing from snapshot")
	}
	if drops != z.cat.Audit.Dropped() || drops <= 0 {
		t.Errorf("audit.dropped = %d (log says %d)", drops, z.cat.Audit.Dropped())
	}
}

// TestAdminEndpoint exercises /metrics and /healthz and verifies the
// endpoint dies with the server (the shutdown satellite).
func TestAdminEndpoint(t *testing.T) {
	z := newZone(t, Proxy)
	// Close (below) waits for live connections, so manage this client
	// by hand rather than via the cleanup-scoped helper.
	cl, err := client.Dial(z.addr1, "alice", "alicepw")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Put("/home/adm.dat", []byte("x"), client.PutOpts{Resource: "disk1"}); err != nil {
		cl.Close()
		t.Fatal(err)
	}
	cl.Close()
	addr := serveAdmin(t, z.s1)
	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return string(body)
	}
	// The default exposition is Prometheus text format.
	prom := get("/metrics")
	for _, want := range []string{
		"# TYPE srb_uptime_seconds gauge",
		"# TYPE srb_server_ingest_duration_seconds histogram",
		"srb_server_ingest_ops_total 1",
		"srb_broker_ingest_ops_total 1",
		"srb_storage_disk1_bytes_in_total ",
		"srb_audit_dropped 0",
		`_bucket{le="+Inf"}`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics missing %q:\n%.800s", want, prom)
		}
	}
	if hz := get("/healthz"); !strings.Contains(hz, "ok srb1") {
		t.Errorf("/healthz = %q", hz)
	}
	if idx := get("/debug/pprof/"); !strings.Contains(idx, "goroutine") {
		t.Errorf("pprof index looks wrong: %.80s", idx)
	}
}

// TestDispatchMetricsConcurrent hammers one server's registry from many
// client connections at once; run under -race it doubles as the data
// race check for the whole instrumentation path (dispatch spans, broker
// ops, storage byte counters, trace ring).
func TestDispatchMetricsConcurrent(t *testing.T) {
	z := newZone(t, Proxy)
	const workers, iters = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := client.Dial(z.addr1, "alice", "alicepw")
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			path := "/home/conc" + string(rune('a'+w)) + ".dat"
			if _, err := cl.Put(path, []byte("c"), client.PutOpts{Resource: "disk1"}); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < iters; i++ {
				if _, err := cl.Get(path); err != nil {
					t.Error(err)
					return
				}
				if err := cl.Call(wire.OpOpStats, struct{}{}, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	got := z.b1.Metrics().Op("server.get").Count()
	if want := int64(workers * iters); got != want {
		t.Errorf("server.get count = %d, want %d", got, want)
	}
}

// TestServerLoggerLevels checks the leveled logger default: errors are
// logged, per-op detail stays off until raised.
func TestServerLoggerLevels(t *testing.T) {
	z := newZone(t, Proxy)
	var buf strings.Builder
	var mu sync.Mutex
	w := writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.WriteString(string(p))
	})
	z.s1.Logger = obs.NewLogger(w, "srb1", obs.LevelInfo)
	cl := z.client(z.addr1, "alice", "alicepw")
	if _, err := cl.Get("/home/missing.dat"); err == nil {
		t.Fatal("expected notfound")
	}
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "op get") || !strings.Contains(out, "trace=") || !strings.Contains(out, "remote=") {
		t.Errorf("error log missing op/remote/trace context: %q", out)
	}
}

type writerFunc func(p []byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

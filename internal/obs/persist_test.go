package obs

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gosrb/internal/traceid"
)

// TestTelemetryRestoreWindowAt proves the tentpole property: after a
// flush/restart cycle a fresh registry answers WindowAt over the
// pre-restart interval with the same deltas the old process would have
// reported — the ring is refilled AND the live cumulative atomics are
// re-seeded so baseline subtraction stays exact.
func TestTelemetryRestoreWindowAt(t *testing.T) {
	dir := t.TempDir()
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)

	ts, err := OpenTelemetryStore(dir, "srb1", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	// Pre-window activity, then a baseline capture 5 minutes back.
	reg.Counter("bytes").Add(10)
	for i := 0; i < 40; i++ {
		reg.Op("server.get").Observe(time.Millisecond, nil)
	}
	reg.CaptureRollup(now.Add(-5 * time.Minute))
	// In-window activity, captured 1 minute back.
	reg.Counter("bytes").Add(30)
	for i := 0; i < 99; i++ {
		reg.Op("server.get").Observe(16*time.Millisecond, nil)
	}
	reg.Op("server.get").Observe(16*time.Millisecond, errors.New("boom"))
	reg.CaptureRollup(now.Add(-1 * time.Minute))
	reg.Usage().Record("curator", "/home/curator", 1, "get", false, 0, 4096, time.Millisecond)
	reg.Peers().Record("srb2", "", 3*time.Millisecond, 1<<20, false)
	if err := ts.Flush(reg, nil, now); err != nil {
		t.Fatal(err)
	}
	if err := ts.Close(reg, nil, now); err != nil {
		t.Fatal(err)
	}

	// "Restart": new store handle, empty registry.
	ts2, err := OpenTelemetryStore(dir, "srb1", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	reg2 := NewRegistry()
	snap, err := ts2.Restore(reg2)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Rollups) != 2 {
		t.Fatalf("restored %d rollups, want 2", len(snap.Rollups))
	}
	ws := reg2.WindowAt(now, 5*time.Minute)
	if c := ws.Counters["bytes"]; c.Delta != 30 {
		t.Errorf("restored bytes delta = %d, want 30", c.Delta)
	}
	o := ws.Ops["server.get"]
	if o.Count != 100 || o.Errors != 1 {
		t.Errorf("restored op delta = %d/%d errors, want 100/1", o.Count, o.Errors)
	}
	if o.P50Micros < 8192 || o.P50Micros > 16384 {
		t.Errorf("restored windowed p50 = %v µs, want within the 16ms bucket", o.P50Micros)
	}
	// Live atomics were re-seeded: new activity on top of the restored
	// baseline must delta correctly, not clamp against zero.
	for i := 0; i < 10; i++ {
		reg2.Op("server.get").Observe(time.Millisecond, nil)
	}
	reg2.CaptureRollup(now.Add(30 * time.Second))
	ws = reg2.WindowAt(now.Add(time.Minute), 90*time.Second)
	if o := ws.Ops["server.get"]; o.Count != 10 {
		t.Errorf("post-restore window delta = %d, want 10", o.Count)
	}
	// Usage and peer tables came back.
	if rows := reg2.Usage().Snapshot(); len(rows) != 1 || rows[0].User != "curator" {
		t.Errorf("restored usage rows = %+v, want the curator row", rows)
	}
	peers := reg2.Peers().Snapshot()
	if len(peers) != 1 || peers[0].Peer != "srb2" || peers[0].Ops != 1 || peers[0].Bytes != 1<<20 {
		t.Fatalf("restored peer rows = %+v, want srb2 with 1 op", peers)
	}
	if len(peers[0].Buckets) == 0 {
		t.Error("restored peer row lost its latency histogram")
	}
}

// TestTelemetryAlertsRoundTrip checks alerts flush incrementally via
// the sequence high-water mark and come back on restore.
func TestTelemetryAlertsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	ts, err := OpenTelemetryStore(dir, "srb1", 0)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	log := NewAlertLog(0)
	log.Add(Alert{At: now.Add(-2 * time.Minute), Rule: "get-p99", Firing: true})
	if err := ts.Flush(reg, log, now.Add(-time.Minute)); err != nil {
		t.Fatal(err)
	}
	log.Add(Alert{At: now, Rule: "get-p99", Firing: false})
	if err := ts.Flush(reg, log, now); err != nil {
		t.Fatal(err)
	}
	ts.Close(nil, nil, now) // close without compacting: journal only

	ts2, err := OpenTelemetryStore(dir, "srb1", 0)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ts2.Restore(NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Alerts) != 2 {
		t.Fatalf("restored %d alerts, want 2 (incremental flush must not duplicate)", len(snap.Alerts))
	}
	if !snap.Alerts[0].Firing || snap.Alerts[1].Firing {
		t.Errorf("alert order/flags wrong: %+v", snap.Alerts)
	}
}

// TestTelemetryCompactionCrashAlertsOnce crashes a compaction between
// its two steps: telemetry.json is published with an alert the journal
// still holds. Replay must restore that alert once, or the duplicate
// seeds the live alert log and the next compaction keeps it for good.
func TestTelemetryCompactionCrashAlertsOnce(t *testing.T) {
	dir := t.TempDir()
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	ts, err := OpenTelemetryStore(dir, "srb1", 0)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	log := NewAlertLog(0)
	log.Add(Alert{At: now, Rule: "get-p99", Firing: true})
	if err := ts.Flush(reg, log, now); err != nil {
		t.Fatal(err)
	}
	j := filepath.Join(dir, "telemetry.journal")
	journal, err := os.ReadFile(j)
	if err != nil {
		t.Fatal(err)
	}
	if err := ts.Close(reg, log, now.Add(time.Second)); err != nil { // compacts
		t.Fatal(err)
	}
	// The crash: the journal was never truncated.
	if err := os.WriteFile(j, journal, 0o644); err != nil {
		t.Fatal(err)
	}

	ts2, err := OpenTelemetryStore(dir, "srb1", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ts2.Close(nil, nil, now)
	snap, err := ts2.Restore(NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Alerts) != 1 {
		t.Fatalf("restored %d alerts, want 1: %+v", len(snap.Alerts), snap.Alerts)
	}
}

// TestTelemetryCorruptJournalRecovery crashes mid-append: the journal
// gets a truncated JSON line plus binary garbage. Replay must keep every
// whole line and skip the rest without failing the boot.
func TestTelemetryCorruptJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	ts, err := OpenTelemetryStore(dir, "srb1", 0)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	reg.Op("server.get").Observe(time.Millisecond, nil)
	reg.CaptureRollup(now.Add(-2 * time.Minute))
	reg.CaptureRollup(now.Add(-1 * time.Minute))
	if err := ts.Flush(reg, nil, now); err != nil {
		t.Fatal(err)
	}
	if err := ts.Close(nil, nil, now); err != nil { // nil reg: no final compact
		t.Fatal(err)
	}

	// Simulate a crash mid-append: a torn JSON prefix, then garbage.
	j := filepath.Join(dir, "telemetry.journal")
	f, err := os.OpenFile(j, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"Rollup":{"At":"2026-08-0`)
	f.Write([]byte{0xff, 0xfe, 0x00, '\n'})
	f.WriteString("not json at all\n")
	f.Close()

	ts2, err := OpenTelemetryStore(dir, "srb1", 0)
	if err != nil {
		t.Fatal(err)
	}
	reg2 := NewRegistry()
	snap, err := ts2.Restore(reg2)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Rollups) != 2 {
		t.Fatalf("recovered %d rollups, want 2 (corrupt tail must not eat good lines)", len(snap.Rollups))
	}
	// The torn prefix and the garbage end one line; the text is another.
	if ts2.ReplaySkipped != 2 {
		t.Errorf("ReplaySkipped = %d, want 2", ts2.ReplaySkipped)
	}
	// The store must stay writable after recovery.
	reg2.CaptureRollup(now)
	if err := ts2.Flush(reg2, nil, now.Add(time.Second)); err != nil {
		t.Fatalf("flush after corrupt recovery: %v", err)
	}
}

// TestTelemetryFlushAfterFailedCompaction: a compaction that cannot
// reopen the journal fails, and so does every later flush, without a
// panic.
func TestTelemetryFlushAfterFailedCompaction(t *testing.T) {
	dir := t.TempDir()
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	ts, err := OpenTelemetryStore(dir, "srb1", 0)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	for i := 1; i < telemetryCompactEvery; i++ {
		if err := ts.Flush(reg, nil, now); err != nil {
			t.Fatal(err)
		}
	}
	j := filepath.Join(dir, "telemetry.journal")
	if err := os.Remove(j); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(j, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := ts.Flush(reg, nil, now); err == nil {
		t.Fatal("compaction over a directory succeeded")
	}
	reg.CaptureRollup(now)
	if err := ts.Flush(reg, nil, now.Add(time.Second)); err == nil {
		t.Error("flush after a failed compaction succeeded")
	}
	ts.Close(nil, nil, now)
}

// TestTelemetryCompactionDedup drives enough flushes to cross the
// compaction threshold and verifies replay sees each rollup exactly
// once — snapshot/journal overlap is deduplicated, retention prunes.
func TestTelemetryCompactionDedup(t *testing.T) {
	dir := t.TempDir()
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	ts, err := OpenTelemetryStore(dir, "srb1", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	// One capture per flush, crossing telemetryCompactEvery twice.
	n := 2*telemetryCompactEvery + 3
	for i := 0; i < n; i++ {
		reg.Op("server.get").Observe(time.Millisecond, nil)
		at := base.Add(time.Duration(i) * time.Second)
		reg.CaptureRollup(at)
		if err := ts.Flush(reg, nil, at); err != nil {
			t.Fatal(err)
		}
	}
	if err := ts.Close(reg, nil, base.Add(time.Duration(n)*time.Second)); err != nil {
		t.Fatal(err)
	}
	ts2, err := OpenTelemetryStore(dir, "srb1", time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ts2.Restore(NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Rollups) != n {
		t.Fatalf("restored %d rollups, want %d exactly once each", len(snap.Rollups), n)
	}
	for i := 1; i < len(snap.Rollups); i++ {
		if !snap.Rollups[i].At.After(snap.Rollups[i-1].At) {
			t.Fatalf("rollups not strictly ordered at %d: %v then %v",
				i, snap.Rollups[i-1].At, snap.Rollups[i].At)
		}
	}

	// Retention: reopen with a tight horizon and compact — old rollups
	// must not survive.
	reg3 := NewRegistry()
	ts3, err := OpenTelemetryStore(dir, "srb1", 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ts3.Restore(reg3); err != nil {
		t.Fatal(err)
	}
	nowLate := base.Add(time.Duration(n) * time.Second)
	if err := ts3.Close(reg3, nil, nowLate); err != nil {
		t.Fatal(err)
	}
	ts4, err := OpenTelemetryStore(dir, "srb1", 0)
	if err != nil {
		t.Fatal(err)
	}
	snap4, err := ts4.Restore(NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	cutoff := nowLate.Add(-10 * time.Second)
	for _, ru := range snap4.Rollups {
		if ru.At.Before(cutoff) {
			t.Fatalf("rollup at %v survived a %v retention compaction", ru.At, cutoff)
		}
	}
	if len(snap4.Rollups) == 0 || len(snap4.Rollups) >= n {
		t.Fatalf("retention compaction kept %d of %d rollups, want a proper subset", len(snap4.Rollups), n)
	}
}

// TestParentFormatTraceIDs reads trace IDs as every flight-recorder file
// and JSON surface has always written them — 16 hex digits in a string —
// into the integer IDs, and writes them back byte for byte: a journal's
// usage line, a span record (the trace ring in an incident bundle, the
// trace feed) and a histogram exemplar.
func TestParentFormatTraceIDs(t *testing.T) {
	const id = traceid.ID(0x89de7592be0f3b8c)
	dir := t.TempDir()
	usage := `{"Usage":[{"User":"alice","Collection":"/home","Ops":1,"Errors":0,"BytesIn":0,"BytesOut":5,"TotalMicros":90,"LastTrace":"89de7592be0f3b8c","LastOp":"get"}]}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "telemetry.journal"), []byte(usage), 0o644); err != nil {
		t.Fatal(err)
	}
	ts, err := OpenTelemetryStore(dir, "srb1", 0)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if _, err := ts.Restore(reg); err != nil {
		t.Fatal(err)
	}
	ts.Close(nil, nil, time.Now())
	if u := reg.Usage().Snapshot(); len(u) != 1 || u[0].LastTrace != id {
		t.Fatalf("restored usage = %+v, want LastTrace %s", u, id)
	}

	for _, c := range []struct {
		line string
		v    any
	}{
		{`{"User":"alice","Collection":"/home","Ops":1,"Errors":0,"BytesIn":0,"BytesOut":5,"TotalMicros":90,"LastTrace":"89de7592be0f3b8c","LastOp":"get"}`,
			new(UsageStat)},
		{`{"Trace":"89de7592be0f3b8c","Span":"3f7b193ba7bfca65","Op":"get","Server":"srb1","Start":"2002-07-24T09:00:00Z","Micros":250}`,
			new(SpanRecord)},
		{`{"Trace":"89de7592be0f3b8c","Span":"0000000000000002","Parent":"3f7b193ba7bfca65","Op":"get","Start":"2002-07-24T09:00:00Z","Micros":250,"Err":"offline"}`,
			new(SpanRecord)},
		{`{"UpperMicros":2048,"TraceID":"89de7592be0f3b8c","Micros":1500}`, new(BucketExemplar)},
	} {
		if err := json.Unmarshal([]byte(c.line), c.v); err != nil {
			t.Fatalf("%s: %v", c.line, err)
		}
		var trace traceid.ID
		switch v := c.v.(type) {
		case *UsageStat:
			trace = v.LastTrace
		case *SpanRecord:
			trace = v.Trace
			if v.Span == 0 {
				t.Errorf("%s: span ID lost", c.line)
			}
		case *BucketExemplar:
			trace = v.TraceID
		}
		if trace != id {
			t.Errorf("%s: trace read as %s", c.line, trace)
		}
		if back, err := json.Marshal(c.v); err != nil || string(back) != c.line {
			t.Errorf("%s written back as %s, %v", c.line, back, err)
		}
	}
}

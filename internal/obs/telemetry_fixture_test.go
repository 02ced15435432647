package obs

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// The telemetry fixture pins the flight recorder's files the way
// testdata/journal.v1 pins the catalog journal. testdata/telemetry.v1
// was written by telemetryScript at the commit before the keyed tables
// shared one implementation, and testdata/telemetry.v1.dump is what
// restoring it answered there. Both are kept as written then.
//
// A trace ID was any string then, and the script recorded the
// pseudo-IDs "t1" and "t2"; an ID is an integer now, and the script
// records 1 and 2, which print as 16 hex digits. So the format is
// unchanged while the script writes the fixture's bytes with those two
// values printed so (asHexIDs), and the fixture, read back, answers its
// dump with only the two LastTrace fields gone: a persisted ID that is
// not one costs that field alone.

// asHexIDs maps the fixture's pseudo-IDs to the IDs the script records
// today.
var asHexIDs = strings.NewReplacer(`"t1"`, `"0000000000000001"`, `"t2"`, `"0000000000000002"`)

var telemetryEpoch = time.Date(2002, 7, 24, 9, 0, 0, 0, time.UTC)

// telemetryFiles are the files of a telemetry dir the fixture holds.
var telemetryFiles = []string{"telemetry.json", "telemetry.journal"}

// telemetryScript writes a telemetry dir the way a daemon does across
// one restart: history compacted into telemetry.json at shutdown, then,
// after a boot that restored it, a journal holding a rollup, an alert
// and all four tables, and last a line torn by a crash mid-append. Peer
// and heat rows enter by Restore, which keeps the clock out of the bytes.
func telemetryScript(t *testing.T, dir string) {
	t.Helper()
	at := func(minutes int) time.Time { return telemetryEpoch.Add(time.Duration(minutes) * time.Minute) }
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	ts, err := OpenTelemetryStore(dir, "srb1", 0)
	must(err)
	reg, log := NewRegistry(), NewAlertLog(0)
	reg.Counter("wire.bytes_in").Add(4096)
	reg.Gauge("repair.backlog").Set(3)
	reg.Op("server.get").Observe(900*time.Microsecond, nil)
	reg.Op("server.get").Observe(12*time.Millisecond, errors.New("eio"))
	reg.HeatKeys().Restore([]HeatStat{{Key: "/home/alice", Count: 2, Bytes: 8192, Score: 2, LastSeen: at(0)}})
	reg.CaptureRollup(at(0))
	reg.Usage().Record("alice", "/home/alice", 1, "get", false, 0, 4096, time.Millisecond)
	reg.Peers().Restore([]PeerStat{{Peer: "srb2", Ops: 3, Errors: 1, Bytes: 1 << 20, EWMALatMicros: 2100,
		EWMABytesPerSec: 5e8, LastSeen: at(0), Buckets: []BucketCount{{UpperMicros: 2048, Count: 2}, {UpperMicros: 4096, Count: 1}}}})
	log.Add(Alert{At: at(0), Rule: "get_p99_5m", Raw: "get p99 < 5ms over 5m", Firing: true, Observed: 11000, BurnPct: 220})
	must(ts.Close(reg, log, at(1)))

	ts, err = OpenTelemetryStore(dir, "srb1", 0)
	must(err)
	reg = NewRegistry()
	snap, err := ts.Restore(reg)
	must(err)
	log = NewAlertLog(0)
	for _, a := range snap.Alerts {
		log.Add(a)
	}
	reg.Counter("wire.bytes_in").Add(1024)
	reg.Op("server.get").Observe(3*time.Millisecond, nil)
	reg.Op("server.put").Observe(40*time.Millisecond, nil)
	reg.CaptureRollup(at(2))
	reg.Usage().Record("bob", "/data", 2, "ingest", false, 1<<20, 0, 40*time.Millisecond)
	reg.Peers().Restore([]PeerStat{{Resource: "disk1", Ops: 1, Bytes: 4096, EWMALatMicros: 300,
		EWMABytesPerSec: 1.3e7, LastSeen: at(2), Buckets: []BucketCount{{UpperMicros: 512, Count: 1}}}})
	reg.HeatKeys().Restore([]HeatStat{{Key: "/data", Count: 1, Bytes: 1 << 20, Score: 1.5, ErrFloor: 0.5, LastSeen: at(2)}})
	reg.HeatObjects().Restore([]HeatStat{{Key: "/data/m31.fits", Count: 1, Bytes: 1 << 20, Score: 1, LastSeen: at(2)}})
	log.Add(Alert{At: at(2), Rule: "get_p99_5m", Raw: "get p99 < 5ms over 5m", Observed: 3000, BurnPct: 60})
	must(ts.Flush(reg, log, at(3)))
	must(ts.Close(nil, nil, at(3)))

	f, err := os.OpenFile(filepath.Join(dir, "telemetry.journal"), os.O_WRONLY|os.O_APPEND, 0)
	must(err)
	_, err = f.WriteString(`{"Rollup":{"At":"2002-07-24T09:04:00Z","Counters":{"wire.by`)
	must(err)
	must(f.Close())
}

// telemetryDump is what a registry restored from a telemetry dir
// answers: the ring, the alerts handed back, the four tables, the
// re-seeded live metrics and a window over the restored history.
type telemetryDump struct {
	Rollups     []Rollup
	Alerts      []Alert
	Usage       []UsageStat
	Peers       []PeerStat
	HeatKeys    []HeatStat
	HeatObjects []HeatStat
	Counters    map[string]int64
	Gauges      map[string]int64
	Ops         map[string]OpSnapshot
	Window      WindowStats
}

func restoreDump(t *testing.T, dir string) []byte {
	t.Helper()
	ts, err := OpenTelemetryStore(dir, "srb1", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ts.Close(nil, nil, telemetryEpoch)
	reg := NewRegistry()
	snap, err := ts.Restore(reg)
	if err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	b, err := json.MarshalIndent(telemetryDump{
		Rollups: reg.Rollups().Recent(0), Alerts: snap.Alerts,
		Usage: reg.Usage().Snapshot(), Peers: reg.Peers().Snapshot(),
		HeatKeys: reg.HeatKeys().Snapshot(), HeatObjects: reg.HeatObjects().Snapshot(),
		Counters: s.Counters, Gauges: s.Gauges, Ops: s.Ops,
		Window: reg.WindowAt(telemetryEpoch.Add(4*time.Minute), 5*time.Minute),
	}, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

func TestTelemetryFixture(t *testing.T) {
	const fixture = "testdata/telemetry.v1"
	written := t.TempDir()
	telemetryScript(t, written)
	for _, name := range telemetryFiles {
		want := readFixture(t, filepath.Join(fixture, name))
		got := readFixture(t, filepath.Join(written, name))
		if want = asHexIDs.Replace(want); got != want {
			t.Errorf("the fixture script no longer writes the bytes of %s/%s:\n%s", fixture, name, got)
		}
	}
	want := asHexIDs.Replace(readFixture(t, fixture+".dump"))
	if got := restoreDump(t, copyFixture(t, written)); string(got) != want {
		t.Errorf("the script's files restore to another dump than the fixture did when written:\n%s", got)
	}
}

// TestTelemetryFixtureLegacy: the fixture's own bytes, pseudo-IDs and
// all, still restore — every rollup, alert and table row — losing only
// the two LastTrace values that are not IDs.
func TestTelemetryFixtureLegacy(t *testing.T) {
	const fixture = "testdata/telemetry.v1"
	want := readFixture(t, fixture+".dump")
	for _, id := range []string{"t1", "t2"} {
		field := "\t\t\t\"LastTrace\": \"" + id + "\",\n"
		if strings.Count(want, field) != 1 {
			t.Fatalf("%s.dump holds no LastTrace %q", fixture, id)
		}
		want = strings.Replace(want, field, "", 1)
	}
	if got := restoreDump(t, copyFixture(t, fixture)); string(got) != want {
		t.Errorf("the fixture restores to another dump than it did when written, less its pseudo-IDs:\n%s", got)
	}
}

func readFixture(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// copyFixture copies a telemetry dir's files to a new dir to restore
// from: opening a store creates and appends to its journal.
func copyFixture(t *testing.T, dir string) string {
	t.Helper()
	to := t.TempDir()
	for _, name := range telemetryFiles {
		if err := os.WriteFile(filepath.Join(to, name), []byte(readFixture(t, filepath.Join(dir, name))), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return to
}

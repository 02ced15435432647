package report

import (
	"flag"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gosrb/internal/mcat/shard"
	"gosrb/internal/obs"
	"gosrb/internal/wire"
)

var update = flag.Bool("update", false, "rewrite the golden renderings in testdata/")

var at = time.Date(2002, 7, 24, 9, 30, 0, 0, time.UTC)

// fixedReplies is one fixed reply per report row; the golden test below
// renders each. A row without an entry fails the test.
var fixedReplies = map[string]struct {
	reply  any
	params url.Values
}{
	"opstats": {reply: wire.OpStatsReply{
		Server: "srb1",
		Snapshot: obs.Snapshot{
			Version: "v1", UptimeSeconds: 90,
			Counters: map[string]int64{"storage.disk1.bytes_in": 4096, "zero": 0},
			Gauges:   map[string]int64{"audit.dropped": 0},
			Ops: map[string]obs.OpSnapshot{
				"server.get": {Count: 3, Errors: 1, HistSnapshot: obs.HistSnapshot{P50Micros: 120.5, P90Micros: 400, P99Micros: 900.25}},
				"idle":       {},
			},
			Traces: []obs.SpanRecord{{Trace: 0xc0ffee, Op: "get", Server: "srb1", Micros: 250, Err: "offline"}},
		},
		PeerPool:   &wire.PoolStats{Conns: 2, Idle: 1, Dialed: 3},
		ClientPool: &wire.PoolStats{Conns: 1, Idle: 1, Dialed: 1},
	}},
	"grid": {params: url.Values{"sort": {"p99"}}, reply: wire.GridStatReply{
		Server: "srb1", WindowSeconds: 300,
		Members: []wire.GridMember{
			{Server: "srb1", Window: obs.WindowStats{WindowSeconds: 300, CoveredSeconds: 300, Ops: map[string]obs.WindowOp{
				"server.get": {Count: 4, PerSec: 0.01, P50Micros: 100, P95Micros: 200, P99Micros: 300,
					Buckets: []obs.BucketCount{{UpperMicros: 128, Count: 3}, {UpperMicros: 512, Count: 1}}},
			}}},
			{Server: "srb2", Stale: true, Window: obs.WindowStats{WindowSeconds: 300, CoveredSeconds: 60}},
			{Server: "srb3", Unreachable: true, Err: "dial refused"},
		},
		Grid: obs.WindowStats{
			Counters: map[string]obs.RateStat{"storage.disk1.reads": {Delta: 4, PerSec: 0.01}},
			Ops: map[string]obs.WindowOp{
				"server.get":  {Count: 4, PerSec: 0.01, ErrorPct: 25, P50Micros: 100, P95Micros: 200, P99Micros: 300},
				"server.stat": {Count: 9, PerSec: 0.03, P50Micros: 10, P95Micros: 20, P99Micros: 900},
			},
		},
	}},
	"phases": {reply: PhasesReply{
		Server: "srb1", WindowSeconds: 300, CoveredSeconds: 120, ExemplarMicros: 1000,
		Phases: []obs.PhaseRow{
			{Family: "server", Op: "get", Phase: "storage.read", WindowOp: obs.WindowOp{Count: 4, TotalMicros: 900, P50Micros: 200, P99Micros: 400}},
			{Family: "server", Op: "get", Phase: "mcat.lookup", WindowOp: obs.WindowOp{Count: 4, TotalMicros: 100, P50Micros: 20, P99Micros: 40}},
		},
	}},
	"alerts": {reply: wire.AlertsReply{
		Server: "srb1", Enabled: true,
		Rules:  []obs.SLOStatus{{Rule: "get_p99_5m", Raw: "get p99 < 50ms over 5m", Violating: true, BurnPct: 240}},
		Alerts: []obs.Alert{{At: at, Rule: "get_p99_5m", Firing: true, Detail: "p99 120ms"}},
	}},
	"incidents": {reply: wire.IncidentsReply{
		Server: "srb1", Enabled: true,
		Incidents: []obs.IncidentMeta{{ID: "20020724T093000-get_p99_5m", At: at, Rule: "get_p99_5m", Reason: "slo-fired", Files: []string{"meta.json", "window.json"}}},
	}},
	"peers": {reply: wire.PeersReply{
		Server: "srb1",
		Peers:  []obs.PeerStat{{Peer: "srb2", Ops: 12, Errors: 1, Bytes: 1 << 20, EWMALatMicros: 10500, EWMABytesPerSec: 2.5e6, SuccessPct: 91.7}},
	}},
	"pool": {reply: PoolReply{Server: "srb1", PeerPool: wire.PoolStats{Conns: 2, Idle: 1, Dialed: 3, Evicted: 1}}},
	"trace": {params: url.Values{"id": {"0000000000c0ffee"}}, reply: wire.TraceReply{
		Server: "srb1",
		Spans:  []obs.SpanRecord{{Trace: 0xc0ffee, Span: 0xa, Op: "get", Server: "srb1", Start: at, Micros: 250}},
	}},
	"usage": {reply: wire.UsageReply{
		Server:  "srb1",
		Entries: []obs.UsageStat{{User: "alice", Collection: "/home", Ops: 4, Errors: 1, BytesIn: 10, BytesOut: 2048, TotalMicros: 6000, LastOp: "get", LastTrace: 0xc0ffee}},
	}},
	"repair": {reply: wire.RepairStatusReply{
		Server: "srb1", Enabled: true,
		Status: wire.RepairStatus{
			Running: true, Workers: 2, WorkersAlive: 2, Backlog: 3, OldestAge: 90 * time.Second, Done: 7, Failed: 1, Retries: 2,
			Jobs: []wire.RepairJobStatus{{Name: "scrub", Interval: time.Hour, Runs: 2, Errors: 1, LastRun: at, LastErr: "disk1 offline"}},
		},
	}},
	"shards": {reply: wire.ShardsReply{
		Server: "srb1",
		Shards: []shard.Status{
			{Shard: 0, Role: "leader", Applied: 10, Head: 10, Objects: 5, Collections: 2, MetaEntries: 7},
			{Shard: 1, Role: "follower", Leader: "host:5544", Stale: true, Applied: 4, Head: 9, PullFails: 2, ReplagBytes: 5, ReplagSeconds: 12, LastSync: at},
		},
	}},
	"heat": {reply: wire.HeatReply{
		Server:    "srb1",
		Keys:      []obs.HeatStat{{Key: "/home/alice", Count: 40, Score: 12.5, Bytes: 4096}},
		Objects:   []obs.HeatStat{{Key: "/home/alice/f.dat", Count: 9, Score: 3, Bytes: 2048}},
		Shards:    []shard.Status{{Shard: 0, Role: "leader", Objects: 5}},
		ShardHeat: []shard.ShardHeat{{Shard: 0, Score: 12.5, HotKeys: 1, Objects: 5}, {Shard: 1, Objects: 4}},
		Imbalance: 2,
	}},
	"stats": {reply: wire.StatsReply{Server: "srb1", Objects: 5, Collections: 2, Resources: 1, Users: 3}},
}

// TestRenderGolden pins every row's text rendering — what `srb <verb>`
// prints and the admin route serves as text — to testdata/<name>.golden.
func TestRenderGolden(t *testing.T) {
	for _, r := range All {
		fixed, ok := fixedReplies[r.Name]
		if !ok {
			t.Errorf("report %q has no fixed reply in this test", r.Name)
			continue
		}
		var got strings.Builder
		r.Render(fixed.reply, fixed.params).WriteText(&got)
		path := filepath.Join("testdata", r.Name+".golden")
		if *update {
			if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != string(want) {
			t.Errorf("report %q renders\n%s\nwant\n%s", r.Name, got.String(), want)
		}
	}
}

// TestParseWords pins the one word grammar behind every status verb:
// -json anywhere, positionals in order, value flags, and a boolean flag
// left out recorded as an explicit no.
func TestParseWords(t *testing.T) {
	cases := []struct {
		report string
		words  []string
		want   url.Values
	}{
		{"usage", []string{"alice", "-json"}, url.Values{"user": {"alice"}, "json": {"1"}}},
		{"usage", []string{"-json", "alice", "/home"}, url.Values{"user": {"alice"}, "collection": {"/home"}, "json": {"1"}}},
		{"repair", []string{"-json"}, url.Values{"json": {"1"}}},
		{"grid", []string{"-window", "30s", "-grid", "-sort", "p99"},
			url.Values{"window": {"30s"}, "grid": {"1"}, "sort": {"p99"}, "phases": {"0"}}},
		{"grid", nil, url.Values{"grid": {"0"}, "phases": {"0"}}},
		{"trace", []string{"abc", "-waterfall"}, url.Values{"id": {"abc"}, "waterfall": {"1"}}},
	}
	for _, c := range cases {
		got, err := Lookup(c.report).ParseWords(c.words)
		if err != nil {
			t.Errorf("%s %v: %v", c.report, c.words, err)
			continue
		}
		if got.Encode() != c.want.Encode() {
			t.Errorf("%s %v = %v, want %v", c.report, c.words, got, c.want)
		}
	}
	for _, bad := range [][]string{{"-bogus"}, {"a", "b", "c"}} {
		if _, err := Lookup("usage").ParseWords(bad); err == nil {
			t.Errorf("usage %v should fail", bad)
		}
	}
	if _, err := Lookup("grid").ParseWords([]string{"-window"}); err == nil {
		t.Error("a value flag without its value should fail")
	}
	if a, err := gridArgs(url.Values{"window": {"bogus"}}); err == nil {
		t.Errorf("bad window accepted: %+v", a)
	}
	if _, err := gridArgs(url.Values{"sort": {"size"}}); err == nil {
		t.Error("bad sort key accepted")
	}
	// srb says no to the zone without -grid; an HTTP query that does not
	// mention it gathers the zone; the phases feed defaults the other way.
	if a, _ := gridArgs(url.Values{"grid": {"0"}}); !a.LocalOnly {
		t.Error("grid=0 must be local only")
	}
	if a, _ := gridArgs(url.Values{}); a.LocalOnly {
		t.Error("an unmentioned grid parameter must gather the zone")
	}
	if a, _ := phasesArgs(url.Values{}); !a.LocalOnly {
		t.Error("phases default to the daemon's own")
	}
}

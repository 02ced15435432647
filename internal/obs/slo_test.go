package obs

import (
	"strings"
	"testing"
	"time"
)

func TestParseSLORules(t *testing.T) {
	src := `
# latency objectives
get p99 < 50ms over 5m
server.put p95 < 200ms over 1m
error_rate < 1% over 30m   # aggregate, 5-field form
get rate > 0.1 over 10m
`
	rules, err := ParseSLORules(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 4 {
		t.Fatalf("parsed %d rules, want 4", len(rules))
	}
	r := rules[0]
	if r.Name != "get_p99_5m" || r.Target != "get" || r.Metric != SLOP99 ||
		!r.Less || r.Threshold != 50000 || r.Window != 5*time.Minute {
		t.Errorf("rule 0 = %+v, want get p99 < 50000µs over 5m", r)
	}
	if r := rules[1]; r.Name != "server_put_p95_1m" || r.Threshold != 200000 {
		t.Errorf("rule 1 = %+v, want server.put p95 < 200000µs", r)
	}
	if r := rules[2]; r.Target != "*" || r.Name != "all_error_rate_30m" || r.Threshold != 1 {
		t.Errorf("rule 2 = %+v, want aggregate error_rate < 1", r)
	}
	if r := rules[3]; r.Less || r.Threshold != 0.1 || r.Metric != SLORate {
		t.Errorf("rule 3 = %+v, want rate floor > 0.1", r)
	}
}

func TestParseSLORulesRejects(t *testing.T) {
	for _, bad := range []string{
		"get p42 < 50ms over 5m",                         // unknown metric
		"get p99 <= 50ms over 5m",                        // bad comparator
		"p99 < 50ms over 5m",                             // quantile needs a target
		"get p99 < fast over 5m",                         // bad threshold
		"get p99 < 50ms over soon",                       // bad window
		"get p99 < 50ms within 5m",                       // missing "over"
		"get p99 < 50ms over 5m\nget p99 < 90ms over 5m", // duplicate name
	} {
		if _, err := ParseSLORules(bad); err == nil {
			t.Errorf("ParseSLORules(%q) should fail", bad)
		}
	}
}

// sloFixture is a registry with a backdated baseline so WindowAt(now,
// 5m) covers exactly the activity recorded after the fixture returns.
func sloFixture(t *testing.T) (*Registry, time.Time) {
	t.Helper()
	reg := NewRegistry()
	now := time.Now()
	reg.CaptureRollup(now.Add(-5 * time.Minute))
	return reg, now
}

func TestSLOEvaluateFireAndResolve(t *testing.T) {
	reg, now := sloFixture(t)
	rules, err := ParseSLORules("get p99 < 50ms over 5m")
	if err != nil {
		t.Fatal(err)
	}
	ev := NewSLOEvaluator(reg, rules)

	// Healthy traffic: p99 ≈ 1ms, well under the objective.
	for i := 0; i < 100; i++ {
		reg.Op("server.get").Observe(time.Millisecond, nil)
	}
	st := ev.Evaluate(now)
	if len(st) != 1 || st[0].Violating {
		t.Fatalf("healthy eval = %+v, want not violating", st)
	}
	if n := len(ev.AlertLog().Recent(0)); n != 0 {
		t.Fatalf("healthy eval appended %d alerts, want 0", n)
	}
	if st[0].BurnPct <= 0 || st[0].BurnPct >= 100 {
		t.Errorf("healthy burn = %v%%, want inside the budget (0..100)", st[0].BurnPct)
	}

	// Latency spike: rebaseline, then make every in-window call slow.
	reg.CaptureRollup(now)
	for i := 0; i < 100; i++ {
		reg.Op("server.get").Observe(100*time.Millisecond, nil)
	}
	now = now.Add(5 * time.Minute)
	st = ev.Evaluate(now)
	if !st[0].Violating {
		t.Fatalf("spike eval = %+v, want violating", st[0])
	}
	if st[0].BurnPct < 100 {
		t.Errorf("spike burn = %v%%, want >= 100", st[0].BurnPct)
	}
	alerts := ev.AlertLog().Recent(0)
	if len(alerts) != 1 || !alerts[0].Firing {
		t.Fatalf("alerts = %+v, want one FIRED transition", alerts)
	}
	if reg.Gauge("slo.get_p99_5m.violating").Value() != 1 || reg.Gauge("slo.violating").Value() != 1 {
		t.Error("violation gauges not set")
	}
	if ev.Firing() != 1 {
		t.Errorf("Firing = %d, want 1", ev.Firing())
	}

	// Recovery: rebaseline past the spike, fast traffic only.
	reg.CaptureRollup(now)
	for i := 0; i < 100; i++ {
		reg.Op("server.get").Observe(time.Millisecond, nil)
	}
	now = now.Add(5 * time.Minute)
	st = ev.Evaluate(now)
	if st[0].Violating {
		t.Fatalf("recovered eval = %+v, want resolved", st[0])
	}
	alerts = ev.AlertLog().Recent(0)
	if len(alerts) != 2 || alerts[1].Firing {
		t.Fatalf("alerts = %+v, want FIRED then RESOLVED", alerts)
	}
	if reg.Gauge("slo.violating").Value() != 0 {
		t.Error("aggregate gauge should clear on resolve")
	}
	// Steady state: no transition, no new log entries.
	ev.Evaluate(now.Add(time.Second))
	if n := len(ev.AlertLog().Recent(0)); n != 2 {
		t.Errorf("steady eval appended alerts: %d, want 2", n)
	}
}

func TestSLONoDataResolvesFiringRule(t *testing.T) {
	reg, now := sloFixture(t)
	rules, _ := ParseSLORules("get error_rate < 1% over 5m")
	ev := NewSLOEvaluator(reg, rules)
	for i := 0; i < 10; i++ {
		reg.Op("server.get").Observe(time.Millisecond, errTest)
	}
	if st := ev.Evaluate(now); !st[0].Violating {
		t.Fatal("100% errors should violate a 1% objective")
	}
	// The bad traffic ages out of the window entirely.
	reg.CaptureRollup(now)
	if st := ev.Evaluate(now.Add(5 * time.Minute)); st[0].Violating {
		t.Fatalf("no data should resolve, got %+v", st[0])
	}
	if alerts := ev.AlertLog().Recent(0); len(alerts) != 2 || alerts[1].Firing {
		t.Fatalf("alerts = %+v, want fire then resolve", alerts)
	}
}

func TestSLOAggregateAndRateRules(t *testing.T) {
	reg, now := sloFixture(t)
	rules, err := ParseSLORules("error_rate < 10% over 5m\nget rate > 1 over 5m")
	if err != nil {
		t.Fatal(err)
	}
	ev := NewSLOEvaluator(reg, rules)
	// 2 ops span families: 1 error in 4 calls = 25% aggregate; the get
	// rate over 300s is far below 1/s, so the floor rule fires too.
	reg.Op("server.get").Observe(time.Millisecond, nil)
	reg.Op("server.get").Observe(time.Millisecond, errTest)
	reg.Op("web.browse").Observe(time.Millisecond, nil)
	reg.Op("web.browse").Observe(time.Millisecond, nil)
	st := ev.Evaluate(now)
	if !st[0].Violating {
		t.Errorf("aggregate error_rate = %+v, want violating (25%% > 10%%)", st[0])
	}
	if st[0].Observed != 25 {
		t.Errorf("aggregate observed = %v, want 25", st[0].Observed)
	}
	if !st[1].Violating {
		t.Errorf("rate floor = %+v, want violating (throughput below 1/s)", st[1])
	}
}

func TestSLOTargetResolution(t *testing.T) {
	reg, now := sloFixture(t)
	// Bare "browse" resolves through the web. prefix, so one rule file
	// serves both daemons.
	rules, _ := ParseSLORules("browse p50 < 1ms over 5m")
	ev := NewSLOEvaluator(reg, rules)
	for i := 0; i < 10; i++ {
		reg.Op("web.browse").Observe(50*time.Millisecond, nil)
	}
	if st := ev.Evaluate(now); !st[0].Violating {
		t.Fatalf("prefix-resolved rule = %+v, want violating", st[0])
	}
}

func TestAlertLogBounded(t *testing.T) {
	l := NewAlertLog(4)
	for i := 0; i < 10; i++ {
		l.Add(Alert{Rule: string(rune('a' + i))})
	}
	got := l.Recent(0)
	if len(got) != 4 {
		t.Fatalf("Recent(0) len = %d, want 4", len(got))
	}
	var names []string
	for _, a := range got {
		names = append(names, a.Rule)
	}
	if s := strings.Join(names, ""); s != "ghij" {
		t.Errorf("retained = %q, want the newest four (ghij)", s)
	}
}

var errTest = errOf("test failure")

type errOf string

func (e errOf) Error() string { return string(e) }

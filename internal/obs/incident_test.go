package obs

import (
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func testRecorder(t *testing.T, cfg IncidentConfig) *IncidentRecorder {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	if cfg.Server == "" {
		cfg.Server = "srb-test"
	}
	if cfg.Registry == nil {
		cfg.Registry = NewRegistry()
	}
	if cfg.ProfileDur == 0 {
		cfg.ProfileDur = 10 * time.Millisecond
	}
	ir, err := NewIncidentRecorder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ir
}

// TestIncidentCaptureBundle checks one capture produces a complete,
// listable, retrievable bundle with the expected members.
func TestIncidentCaptureBundle(t *testing.T) {
	reg := NewRegistry()
	sp := StartSpan(1, "server.get")
	sp.End(reg.Traces(), "srb-test", "", nil)
	ir := testRecorder(t, IncidentConfig{
		Registry: reg,
		Extra: func() map[string][]byte {
			return map[string][]byte{"breakers.json": []byte(`{}`)}
		},
	})
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	meta, err := ir.Capture(now, "get-p99", "slo-fired", "p99 123ms > 50ms", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(meta.ID, "-"+sloSlug("get-p99")) {
		t.Errorf("bundle id %q, want <ts>-%s", meta.ID, sloSlug("get-p99"))
	}
	for _, want := range []string{"cpu.pprof", "heap.pprof", "spans.txt", "spans.json", "window.json", "breakers.json"} {
		found := false
		for _, f := range meta.Files {
			if f == want {
				found = true
			}
		}
		if !found {
			t.Errorf("bundle missing %s (have %v)", want, meta.Files)
		}
	}
	list := ir.List()
	if len(list) != 1 || list[0].ID != meta.ID {
		t.Fatalf("List = %+v, want the one bundle", list)
	}
	got, files, err := ir.Get(meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Rule != "get-p99" || got.Reason != "slo-fired" || got.Server != "srb-test" {
		t.Errorf("Get meta = %+v", got)
	}
	var ws WindowStats
	if err := json.Unmarshal(files["window.json"], &ws); err != nil {
		t.Fatalf("window.json not parseable: %v", err)
	}
	if len(files["cpu.pprof"]) == 0 || len(files["heap.pprof"]) == 0 {
		t.Error("profiles empty in retrieved bundle")
	}
}

// TestIncidentRateLimitFlapping drives a flapping rule: only captures
// separated by MinGap land, each suppression reports ErrRateLimited,
// and an unrelated rule is limited independently.
func TestIncidentRateLimitFlapping(t *testing.T) {
	ir := testRecorder(t, IncidentConfig{MinGap: time.Minute})
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)

	captured, limited := 0, 0
	// A rule flapping every 10s for 5 minutes: 31 fire events.
	for i := 0; i <= 30; i++ {
		_, err := ir.Capture(base.Add(time.Duration(i)*10*time.Second), "get-p99", "slo-fired", "", time.Minute)
		switch {
		case err == nil:
			captured++
		case errors.Is(err, ErrRateLimited):
			limited++
		default:
			t.Fatal(err)
		}
	}
	// Captures land at 0s, 60s, ..., 300s: six, the rest suppressed.
	if captured != 6 || limited != 25 {
		t.Fatalf("captured %d / limited %d, want 6 / 25", captured, limited)
	}
	// A different rule is not throttled by get-p99's gap.
	if _, err := ir.Capture(base.Add(5*time.Second), "put-err", "slo-fired", "", time.Minute); err != nil {
		t.Fatalf("independent rule rate-limited: %v", err)
	}
	if got := len(ir.List()); got != 7 {
		t.Fatalf("index holds %d bundles, want 7", got)
	}
}

// TestIncidentRateLimitConcurrent fires the same rule from many
// goroutines at one instant: exactly one capture must win (the slot is
// claimed before the slow profile work, not after).
func TestIncidentRateLimitConcurrent(t *testing.T) {
	ir := testRecorder(t, IncidentConfig{MinGap: time.Minute})
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	var wg sync.WaitGroup
	var ok, limited int64
	var mu sync.Mutex
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := ir.Capture(now, "get-p99", "slo-fired", "", time.Minute)
			mu.Lock()
			if err == nil {
				ok++
			} else if errors.Is(err, ErrRateLimited) {
				limited++
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	if ok != 1 || limited != 7 {
		t.Fatalf("concurrent capture: %d ok / %d limited, want 1 / 7", ok, limited)
	}
}

// TestIncidentEvictAndPrune checks the bounded index and retention
// pruning.
func TestIncidentEvictAndPrune(t *testing.T) {
	ir := testRecorder(t, IncidentConfig{MinGap: time.Millisecond, MaxIndex: 3})
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 5; i++ {
		if _, err := ir.Capture(base.Add(time.Duration(i)*time.Second), "get-p99", "slo-fired", "", time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	list := ir.List()
	if len(list) != 3 {
		t.Fatalf("index holds %d, want MaxIndex=3", len(list))
	}
	// Newest first; the two oldest (0s, 1s) were evicted.
	if !list[0].At.Equal(base.Add(4*time.Second)) || !list[2].At.Equal(base.Add(2*time.Second)) {
		t.Fatalf("surviving bundles %v, want 4s..2s", list)
	}
	ir.Prune(base.Add(3*time.Second + 500*time.Millisecond))
	if got := len(ir.List()); got != 1 {
		t.Fatalf("after prune %d bundles remain, want 1", got)
	}
}

// TestIncidentGetRejectsTraversal checks hostile ids never reach the
// filesystem.
func TestIncidentGetRejectsTraversal(t *testing.T) {
	ir := testRecorder(t, IncidentConfig{})
	for _, id := range []string{
		"../../etc/passwd",
		"..",
		"20260808T120000.000-get/../..",
		"nonsense",
		"",
	} {
		if _, _, err := ir.Get(id); err == nil {
			t.Errorf("Get(%q) succeeded, want rejection", id)
		}
	}
}

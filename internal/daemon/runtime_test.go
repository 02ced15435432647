package daemon

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gosrb/internal/core"
	"gosrb/internal/mcat"
	"gosrb/internal/obs"
)

// TestRuntimeJobs pins what the shared runtime schedules: the job names
// and intervals the chaos and /healthz tests read, in registration
// order, and only the jobs whose settings enable them.
func TestRuntimeJobs(t *testing.T) {
	dir := t.TempDir()
	rules := filepath.Join(dir, "rules.txt")
	if err := os.WriteFile(rules, []byte("get p99 < 50ms over 5m\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	cfg := Flags(fs)
	if err := fs.Parse([]string{
		"-scrub-interval", "1h", "-slo-rules", rules, "-slo-interval", "7s",
		"-telemetry-dir", filepath.Join(dir, "telem"), "-user", "alice=pw",
	}); err != nil {
		t.Fatal(err)
	}
	cfg.Name, cfg.Logf = "srb1", t.Logf
	cfg.RollupEvery, cfg.HeatDecay = 10*time.Second, time.Minute
	cfg.Resources = Repeated{"cache=memfs:"}
	var extra bool
	cfg.Extra = func(files map[string][]byte) { extra = true; files["grid.json"] = []byte("{}") }

	b := core.New(mcat.New("admin", "local"), "srb1")
	rt, err := New(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Cat.GetUser("alice"); err != nil || rt.Authn == nil {
		t.Errorf("-user alice not entered in the catalog: %v", err)
	}
	if _, err := b.Driver("cache"); err != nil {
		t.Errorf("-resource cache not mounted: %v", err)
	}
	want := []struct {
		name     string
		interval time.Duration
	}{
		{"scrub", time.Hour}, {"rollup", 10 * time.Second}, {"heat.decay", time.Minute},
		{"slo", 7 * time.Second}, {"telemetry", obs.DefaultTelemetryFlush},
	}
	jobs := rt.Engine.Status().Jobs
	if len(jobs) != len(want) {
		t.Fatalf("jobs = %+v, want %d", jobs, len(want))
	}
	for i, w := range want {
		if jobs[i].Name != w.name || jobs[i].Interval != w.interval {
			t.Errorf("job %d = %s every %s, want %s every %s", i, jobs[i].Name, jobs[i].Interval, w.name, w.interval)
		}
	}
	if b.SLO() == nil || b.Incidents() == nil {
		t.Error("SLO evaluator or flight recorder not attached to the broker")
	}
	if b.Repair() != nil {
		t.Error("the engine is attached before Start")
	}
	rt.Start()
	if b.Repair() != rt.Engine {
		t.Error("Start did not attach the engine")
	}
	meta, err := b.Incidents().Capture(time.Now(), "manual", "manual", "test", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !extra {
		t.Error("the daemon's Extra files were not asked for")
	}
	_, files, err := b.Incidents().Get(meta.ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"grid.json", "breakers.json", "repair.json"} {
		if _, ok := files[name]; !ok {
			t.Errorf("bundle lacks %s: has %v", name, meta.Files)
		}
	}
	rt.Stop()
	if _, err := os.Stat(filepath.Join(dir, "telem", "telemetry.json")); err != nil {
		t.Errorf("Stop did not compact the telemetry journal: %v", err)
	}

	// With nothing enabled the runtime is the bare engine.
	bare := Flags(flag.NewFlagSet("t", flag.ContinueOnError))
	bare.Name, bare.Logf = "srb1", t.Logf
	rt2, err := New(core.New(mcat.New("admin", "local"), "srb1"), bare)
	if err != nil {
		t.Fatal(err)
	}
	if jobs := rt2.Engine.Status().Jobs; len(jobs) != 0 {
		t.Errorf("jobs with every interval off = %+v", jobs)
	}
}

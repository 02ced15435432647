package daemon

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gosrb/internal/mcat"
	"gosrb/internal/obs"
	"gosrb/internal/report"
	"gosrb/internal/server"
	"gosrb/internal/types"
)

// logSink collects a runtime's log lines.
type logSink struct {
	mu    sync.Mutex
	lines []string
}

func (l *logSink) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *logSink) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.lines, "\n")
}

// boot parses args the way a daemon does — srbd registers the catalog
// flags too, mysrbd does not — and boots the runtime.
func boot(t *testing.T, srbd bool, args ...string) (*Runtime, *logSink) {
	t.Helper()
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	cfg := Flags(fs)
	if srbd {
		cfg.CatalogFlags(fs)
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	sink := new(logSink)
	cfg.Name, cfg.Logf, cfg.AdminPw = "srb1", sink.logf, "pw"
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt, sink
}

func jobNames(rt *Runtime) string {
	var names []string
	for _, j := range rt.Engine.Status().Jobs {
		names = append(names, j.Name)
	}
	return strings.Join(names, " ")
}

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
	cfg.CatalogFlags(fs)
	if err := fs.Parse([]string{
		"-scrub-interval", "1h", "-slo-rules", rules, "-slo-interval", "7s",
		"-telemetry-dir", filepath.Join(dir, "telem"), "-user", "alice=pw",
		"-catalog", filepath.Join(dir, "mcat.json"), "-save-every", "3m",
		"-resource", "cache=memfs:",
	}); err != nil {
		t.Fatal(err)
	}
	cfg.Name, cfg.Logf = "srb1", t.Logf

	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b := rt.Broker
	if _, err := b.Cat.GetUser("alice"); err != nil || rt.Authn == nil {
		t.Errorf("-user alice not entered in the catalog: %v", err)
	}
	if _, err := b.Driver("cache"); err != nil {
		t.Errorf("-resource cache not mounted: %v", err)
	}
	// A main's own rows go through the call the shared ones went through.
	rt.Engine.AddJob("shard.gauges", time.Minute, 0.1, func(*obs.Span) error { return nil })
	want := []struct {
		name     string
		interval time.Duration
	}{
		{"catalog.save", 3 * time.Minute}, {"replica.sweep", time.Minute},
		{"scrub", time.Hour}, {"rollup", 10 * time.Second}, {"heat.decay", time.Minute},
		{"slo", 7 * time.Second}, {"telemetry", obs.DefaultTelemetryFlush},
		{"shard.gauges", time.Minute},
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

	// Each row is listed once, and only when its setting enables it:
	// catalog.save needs -catalog and a positive -save-every, the
	// constant rows are always on, a daemon without the catalog flags
	// (mysrbd) saves every minute.
	file := filepath.Join(dir, "other.json")
	for _, c := range []struct {
		srbd bool
		args []string
		want string
	}{
		{true, nil, "replica.sweep rollup heat.decay"},
		{true, []string{"-save-every", "5s"}, "replica.sweep rollup heat.decay"},
		{true, []string{"-catalog", file}, "catalog.save replica.sweep rollup heat.decay"},
		{true, []string{"-catalog", file, "-save-every", "0"}, "replica.sweep rollup heat.decay"},
		{false, []string{"-catalog", file}, "catalog.save replica.sweep rollup heat.decay"},
		{false, []string{"-scrub-interval", "1h", "-rollup-interval", "0"}, "replica.sweep scrub heat.decay"},
	} {
		rt, _ := boot(t, c.srbd, c.args...)
		if got := jobNames(rt); got != c.want {
			t.Errorf("srbd=%v %v: jobs = %q, want %q", c.srbd, c.args, got, c.want)
		}
		if first := rt.Engine.Status().Jobs[0]; first.Name == "catalog.save" && first.Interval != time.Minute {
			t.Errorf("srbd=%v %v: saves every %s, want the 1m default", c.srbd, c.args, first.Interval)
		}
	}
}

// TestCatalogFileCompatibility is the on-disk contract of the shared
// boot: a snapshot mcat.Catalog.SaveFile wrote (what mysrbd kept before
// it booted through shard.Open) loads, and what Stop saves is a file
// mcat.Catalog.LoadFile reads. Stop logs its steps in their fixed order.
func TestCatalogFileCompatibility(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "mcat.json")
	old := mcat.New("admin", "local")
	if err := old.MkColl("/legacy", "admin"); err != nil {
		t.Fatal(err)
	}
	if err := old.AddMeta("/legacy", types.MetaUser, types.AVU{Name: "era", Value: "pre-router"}); err != nil {
		t.Fatal(err)
	}
	if err := old.SaveFile(file); err != nil {
		t.Fatal(err)
	}

	rt, sink := boot(t, false, "-catalog", file, "-telemetry-dir", filepath.Join(dir, "telem"))
	if avus, err := rt.Cat.GetMeta("/legacy", types.MetaUser); err != nil || len(avus) != 1 || avus[0].Value != "pre-router" {
		t.Fatalf("legacy snapshot through the shared boot: meta = %v, %v", avus, err)
	}
	rt.Start()
	if err := rt.Broker.Mkdir("admin", "/fresh"); err != nil {
		t.Fatal(err)
	}
	rt.Stop()

	back := mcat.New("admin", "local")
	if err := back.LoadFile(file); err != nil {
		t.Fatalf("the saved catalog does not load with mcat.Catalog.LoadFile: %v", err)
	}
	if !back.CollExists("/legacy") || !back.CollExists("/fresh") {
		t.Error("the saved catalog lost a collection")
	}
	at := -1
	for _, step := range []string{"repair engine stopped", "catalog saved to " + file, "telemetry closed", "final stats: uptime="} {
		next := strings.Index(sink.String()[at+1:], step)
		if next < 0 {
			t.Fatalf("stop log lacks %q after offset %d:\n%s", step, at, sink)
		}
		at += 1 + next
	}
}

// TestUnreadableSnapshotRefusesToBoot: a damaged snapshot is an error to
// both daemons, never an empty grid the next save would write over it.
func TestUnreadableSnapshotRefusesToBoot(t *testing.T) {
	file := filepath.Join(t.TempDir(), "mcat.json")
	damaged := []byte(`{"Version":1,"Objects":{"/a/b":{"ID":7,` + "\x00\xff")
	if err := os.WriteFile(file, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, srbd := range []bool{true, false} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		cfg := Flags(fs)
		if srbd {
			cfg.CatalogFlags(fs)
		}
		fs.Parse([]string{"-catalog", file})
		cfg.Name, cfg.Logf = "srb1", t.Logf
		if rt, err := New(cfg); err == nil {
			rt.Stop()
			t.Errorf("srbd=%v booted over an unreadable snapshot", srbd)
		}
		if got, _ := os.ReadFile(file); !bytes.Equal(got, damaged) {
			t.Fatalf("srbd=%v: the damaged snapshot was rewritten", srbd)
		}
	}
}

// TestStopWhileSaving stops a runtime whose catalog.save row is running
// back to back, beside an operator triggering the same row by hand. Run
// under -race it shows Store.Snapshot never runs twice at once; the
// reopened catalog shows the final snapshot holds every acknowledged
// mutation.
func TestStopWhileSaving(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-catalog", filepath.Join(dir, "mcat.json"), "-journal", filepath.Join(dir, "mcat.journal")}
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	cfg := Flags(fs)
	cfg.CatalogFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	cfg.Name, cfg.Logf, cfg.AdminPw = "srb1", t.Logf, "pw"
	cfg.saveEvery = time.Millisecond
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()

	const colls = 300
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < colls; i++ {
			if err := rt.Broker.Mkdir("admin", fmt.Sprintf("/c%03d", i)); err != nil {
				t.Errorf("mkdir %d: %v", i, err)
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if err := rt.Engine.RunJob("catalog.save"); err != nil {
				t.Errorf("catalog.save by hand: %v", err)
			}
		}
	}()
	wg.Wait()
	for rt.Engine.Status().Jobs[0].Runs < 25 { // 20 by hand, so the scheduler is at it too
		time.Sleep(time.Millisecond)
	}
	rt.Stop()

	// The snapshot alone — no journal replayed over it — has them all.
	back := mcat.New("admin", "local")
	if err := back.LoadFile(filepath.Join(dir, "mcat.json")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < colls; i++ {
		if p := fmt.Sprintf("/c%03d", i); !back.CollExists(p) {
			t.Fatalf("final snapshot lacks %s", p)
		}
	}
	again, _ := boot(t, true, args...)
	if n := len(again.Cat.SubColls("/")); n != colls {
		t.Errorf("reopened catalog holds %d collections, want %d", n, colls)
	}
}

// TestPauseDefersSaveNotShutdown: /repair?action=pause holds back
// catalog.save like every other row of the table, and the snapshot Stop
// takes is not a row, so it runs while paused.
func TestPauseDefersSaveNotShutdown(t *testing.T) {
	file := filepath.Join(t.TempDir(), "mcat.json")
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	cfg := Flags(fs)
	fs.Parse([]string{"-catalog", file})
	cfg.Name, cfg.Logf, cfg.AdminPw = "mysrb", t.Logf, "pw"
	cfg.saveEvery = 2 * time.Millisecond
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	addr, err := rt.Serve("127.0.0.1:0", server.NewAdminHandler(report.Env{Name: cfg.Name, Broker: rt.Broker}))
	if err != nil {
		t.Fatal(err)
	}
	saves := func() int64 { return rt.Engine.Status().Jobs[0].Runs }
	for saves() == 0 {
		time.Sleep(time.Millisecond)
	}
	resp, err := http.Post("http://"+addr+"/repair?action=pause", "", nil)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("pause: %v %v", resp, err)
	}
	resp.Body.Close()
	time.Sleep(20 * time.Millisecond) // a run already past the pause check finishes
	held := saves()
	if err := rt.Broker.Mkdir("admin", "/while-paused"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // 25 intervals
	if got := saves(); got != held {
		t.Errorf("catalog.save ran %d time(s) while paused", got-held)
	}
	if names := jobNames(rt); !strings.Contains(names, "replica.sweep") {
		t.Errorf("replica.sweep is not a row of the paused scheduler: %s", names)
	}
	rt.Stop()
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Error("the admin listener outlived Stop")
	}
	back := mcat.New("admin", "local")
	if err := back.LoadFile(file); err != nil {
		t.Fatal(err)
	}
	if !back.CollExists("/while-paused") {
		t.Error("the shutdown snapshot did not run while the engine was paused")
	}
}

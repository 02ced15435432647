// Package daemon is the process lifecycle srbd and mysrbd share: the
// catalog booted through shard.Open, accounts and storage resources from
// flag values, durable telemetry, the repair engine with the job table
// every periodic activity is a row of, the SLO evaluator, the flight
// recorder, the HTTP listeners and the stop sequence a signal runs. A
// main parses its flags, calls New, adds what is its own and calls Run.
package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"gosrb/internal/auth"
	"gosrb/internal/core"
	"gosrb/internal/mcat/shard"
	"gosrb/internal/obs"
	"gosrb/internal/repair"
	"gosrb/internal/report"
	"gosrb/internal/server"
	"gosrb/internal/storage"
	"gosrb/internal/storage/archivefs"
	"gosrb/internal/storage/dbfs"
	"gosrb/internal/storage/memfs"
	"gosrb/internal/storage/posixfs"
	"gosrb/internal/types"
)

// Repeated collects a repeatable string flag.
type Repeated []string

func (r *Repeated) String() string     { return strings.Join(*r, ",") }
func (r *Repeated) Set(v string) error { *r = append(*r, v); return nil }

// Config holds the settings of the shared runtime: what Flags and
// CatalogFlags parse, plus the daemon's name and log sink.
type Config struct {
	// Name is the daemon's server name: the telemetry journal, incident
	// bundles and repair spans carry it.
	Name string
	// Logf receives the runtime's log lines.
	Logf func(format string, args ...any)

	Admin, AdminPw string
	Users          Repeated
	// Resources holds the -resource values, name=driver:arg each.
	Resources Repeated

	RepairWorkers int
	ScrubEvery    time.Duration
	RollupEvery   time.Duration
	SLORules      string
	SLOEvery      time.Duration
	TelemetryDir  string
	TelemetryRet  time.Duration

	// Set by the flags of Flags and CatalogFlags only. Without the
	// latter (mysrbd): one unjournaled shard, saved every minute.
	catalog, journal, adminAddr string
	shards                      int
	saveEvery                   time.Duration
}

// Flags registers on fs the flags srbd and mysrbd share.
func Flags(fs *flag.FlagSet) *Config {
	c := &Config{shards: 1, saveEvery: time.Minute}
	fs.StringVar(&c.Admin, "admin", "admin", "administrator user name")
	fs.StringVar(&c.adminAddr, "admin-addr", "", "admin HTTP listen address for /metrics, /healthz, the status feeds and /debug/pprof (empty disables)")
	fs.StringVar(&c.catalog, "catalog", "", "MCAT snapshot file: loaded at start, saved periodically and on exit (empty keeps the catalog in memory)")
	fs.StringVar(&c.AdminPw, "admin-pw", os.Getenv("SRB_ADMIN_PW"), "administrator password (or $SRB_ADMIN_PW)")
	fs.Var(&c.Users, "user", "user account: name=password; repeatable")
	fs.Var(&c.Resources, "resource", "physical resource: name=driver:arg (driver: posixfs|memfs|archivefs|dbfs); repeatable")
	fs.IntVar(&c.RepairWorkers, "repair-workers", 2, "background repair worker goroutines draining the async-replication/scrub queue (0 leaves the queue undrained)")
	fs.DurationVar(&c.RollupEvery, "rollup-interval", obs.DefaultRollupInterval, "telemetry rollup capture interval feeding /metrics?window=, /grid, srb top and the MySRB dashboard (0 disables windowed stats)")
	fs.DurationVar(&c.ScrubEvery, "scrub-interval", 0, "anti-entropy scrub interval: re-hash every replica against the catalog checksum and repair divergence (0 disables)")
	fs.StringVar(&c.SLORules, "slo-rules", "", "SLO rules file, one rule per line (e.g. 'get p99 < 50ms over 5m'); empty disables SLO evaluation")
	fs.DurationVar(&c.SLOEvery, "slo-interval", 30*time.Second, "how often declared SLO rules are evaluated against the rollup ring")
	fs.StringVar(&c.TelemetryDir, "telemetry-dir", "", "flight recorder directory: durable telemetry journal plus incident bundles, restored at boot (empty disables)")
	fs.DurationVar(&c.TelemetryRet, "telemetry-retention", 24*time.Hour, "how much telemetry and incident history survives compaction (0 keeps whatever the rings retain)")
	return c
}

// CatalogFlags registers the catalog-store flags only srbd exposes.
func (c *Config) CatalogFlags(fs *flag.FlagSet) {
	fs.StringVar(&c.journal, "journal", "", "MCAT append log; replayed over the snapshot at start, rotated at each snapshot")
	fs.IntVar(&c.shards, "mcat-shards", 1, "MCAT partition count; 1 keeps the monolithic catalog and its on-disk layout, N shards the namespace across <catalog>.shard<i> files with scatter-gather queries")
	fs.DurationVar(&c.saveEvery, "save-every", time.Minute, "catalog autosave interval (0 disables)")
}

// accounts builds the authenticator: the administrator plus every -user
// account, each also entered in the catalog when it is new there.
func (c *Config) accounts(b *core.Broker) (*auth.Authenticator, error) {
	if c.AdminPw == "" {
		c.AdminPw = "admin"
		c.Logf("warning: using default admin password; set -admin-pw")
	}
	authn := auth.New()
	authn.Register(c.Admin, c.AdminPw)
	for _, u := range c.Users {
		name, pw, ok := strings.Cut(u, "=")
		if !ok {
			return nil, fmt.Errorf("bad -user %q (want name=password)", u)
		}
		authn.Register(name, pw)
		if _, err := b.Cat.GetUser(name); err != nil {
			b.Cat.AddUser(types.User{Name: name, Domain: "local"})
		}
	}
	return authn, nil
}

// buildDriver parses a -resource value, name=driver:arg, and constructs
// the storage driver.
func buildDriver(spec string) (name string, d storage.Driver, class types.ResourceClass, driver string, err error) {
	name, rest, ok := strings.Cut(spec, "=")
	if !ok {
		return "", nil, 0, "", fmt.Errorf("want name=driver:arg")
	}
	driver, arg, _ := strings.Cut(rest, ":")
	switch driver {
	case "posixfs":
		if arg == "" {
			return "", nil, 0, "", fmt.Errorf("posixfs needs a root directory")
		}
		fs, ferr := posixfs.New(arg)
		return name, fs, types.ClassFileSystem, driver, ferr
	case "memfs":
		return name, memfs.New(), types.ClassCache, driver, nil
	case "archivefs":
		cfg := archivefs.Config{StageLatency: 100 * time.Millisecond}
		if arg != "" {
			if cfg.StageLatency, err = time.ParseDuration(arg); err != nil {
				return "", nil, 0, "", fmt.Errorf("archivefs latency %q: %v", arg, err)
			}
		}
		return name, archivefs.New(cfg), types.ClassArchive, driver, nil
	case "dbfs":
		return name, dbfs.New(), types.ClassDatabase, driver, nil
	default:
		return "", nil, 0, "", fmt.Errorf("unknown driver %q", driver)
	}
}

// mountResource attaches the storage resource a -resource value describes. A
// resource the loaded catalog already holds gets its driver re-attached;
// a new one is registered as admin's.
func mountResource(b *core.Broker, admin, spec string) error {
	name, d, class, driver, err := buildDriver(spec)
	if err != nil {
		return err
	}
	if _, err := b.Cat.GetResource(name); err == nil {
		return b.Remount(name, d)
	}
	return b.AddPhysicalResource(admin, name, class, driver, d)
}

// Runtime is one daemon process: New boots it, the main adds the jobs
// and listeners that are its own, Start runs the engine, Run waits for
// a signal and Stop ends everything in order.
type Runtime struct {
	// Broker serves every surface of the daemon; Cat is its catalog.
	Broker *core.Broker
	Cat    *shard.Router
	// Authn knows the administrator and every -user account.
	Authn *auth.Authenticator
	// Engine drains the repair queue and schedules the job table.
	Engine *repair.Engine
	// Env is what the local surfaces — the admin endpoint, the grid
	// snapshot in an incident bundle — report on: this daemon alone,
	// until srbd replaces it with an env that reaches its zone.
	Env report.Env

	cfg   *Config
	store *shard.Store
	telem *obs.TelemetryStore
	// https are the listeners Serve opened; Stop waits on served for
	// their goroutines.
	https  []*http.Server
	served sync.WaitGroup
}

// New boots the daemon: the catalog, the broker over it, durable
// telemetry restored into its registry, the accounts, the -resource
// mounts, the repair engine with the job table, the SLO evaluator and
// the flight recorder. Nothing runs until Start, so history is restored
// before any job captures a new rollup.
func New(cfg *Config) (*Runtime, error) {
	// One shard is the monolithic layout, the files mcat.Catalog itself
	// reads and writes; N is the journaled shard map and per-shard files,
	// rebalanced first when the count changed. An absent snapshot is a
	// fresh start, an unreadable one an error.
	store, err := shard.Open(shard.OpenOptions{
		Shards:      cfg.shards,
		CatalogPath: cfg.catalog,
		JournalPath: cfg.journal,
		Admin:       cfg.Admin,
		Domain:      "local",
		Logf:        cfg.Logf,
	})
	if err != nil {
		return nil, fmt.Errorf("mcat: %w", err)
	}
	cat := store.Router()
	b := core.New(cat, cfg.Name)
	reg := b.Metrics()
	cat.SetMetrics(reg)
	// Journal lines skipped during boot replay stay visible as a metric,
	// not just a boot log line.
	reg.Counter("mcat.journal.replay.skipped").Add(int64(store.ReplaySkipped))

	rt := &Runtime{Broker: b, Cat: cat, Env: report.Env{Name: cfg.Name, Broker: b}, cfg: cfg, store: store}
	if rt.Authn, err = cfg.accounts(b); err != nil {
		return nil, err
	}
	for _, spec := range cfg.Resources {
		if err := mountResource(b, cfg.Admin, spec); err != nil {
			return nil, fmt.Errorf("-resource %q: %w", spec, err)
		}
	}

	// Durable telemetry: the previous run's windowed history, usage and
	// peer observatory, so `srb top -window 1h` and SLO burn math answer
	// across the restart.
	var restoredAlerts []obs.Alert
	if cfg.TelemetryDir != "" {
		if rt.telem, err = obs.OpenTelemetryStore(cfg.TelemetryDir, cfg.Name, cfg.TelemetryRet); err != nil {
			return nil, fmt.Errorf("telemetry: %w", err)
		}
		snap, err := rt.telem.Restore(reg)
		if err != nil {
			return nil, fmt.Errorf("telemetry restore: %w", err)
		}
		restoredAlerts = snap.Alerts
		if len(snap.Rollups)+len(snap.Alerts)+len(snap.Peers) > 0 {
			cfg.Logf("telemetry restored: %d rollups, %d alerts, %d peer rows",
				len(snap.Rollups), len(snap.Alerts), len(snap.Peers))
		}
	}

	// The repair engine drains the journaled async-replication queue and
	// runs every periodic job on a jittered schedule.
	rt.Engine = repair.New(repair.Config{
		Workers:  cfg.RepairWorkers,
		Queue:    cat,
		Exec:     b.RunRepairTask,
		Metrics:  reg,
		Breakers: b.Breakers(),
		Server:   cfg.Name,
	})
	ev, err := rt.sloEvaluator(restoredAlerts)
	if err != nil {
		return nil, fmt.Errorf("slo rules: %w", err)
	}
	var rec *obs.IncidentRecorder
	if rt.telem != nil {
		if rec, err = rt.flightRecorder(ev); err != nil {
			return nil, fmt.Errorf("flight recorder: %w", err)
		}
	}
	rt.addJobs(ev, rec)
	return rt, nil
}

// addJobs registers the job table both daemons share: every periodic
// activity is one row — name, interval, jitter, run — on the repair
// engine's scheduler, where it is jittered, spanned, timed as
// repair.job.<name>, listed in /repair and deferred by a pause. A row
// whose interval is not positive is off. A main adds its own rows with
// Engine.AddJob. ev and rec are nil without -slo-rules and
// -telemetry-dir.
func (rt *Runtime) addJobs(ev *obs.SLOEvaluator, rec *obs.IncidentRecorder) {
	cfg, b, reg := rt.cfg, rt.Broker, rt.Broker.Metrics()
	row := func(name string, on bool, every time.Duration, jitter float64, run func(sp *obs.Span) error) {
		if on && every > 0 {
			rt.Engine.AddJob(name, every, jitter, run)
		}
	}
	// Snapshot every shard and rotate its journal.
	row("catalog.save", cfg.catalog != "", cfg.saveEvery, 0.1, func(*obs.Span) error { return rt.store.Snapshot() })
	// Refresh every dirty replica the daemon can reach, so replica
	// consistency costs the users nothing (paper §2).
	row("replica.sweep", true, time.Minute, 0.1, func(*obs.Span) error {
		n, err := b.SyncAllDirty(cfg.Admin)
		if n > 0 {
			cfg.Logf("replica sweep refreshed %d replicas", n)
		}
		return err
	})
	row("scrub", true, cfg.ScrubEvery, 0.2, func(sp *obs.Span) error {
		rpt := b.ScrubSubtree("/", sp)
		if rpt.Corrupt+rpt.Repaired+rpt.Replicated+rpt.Enqueued > 0 {
			cfg.Logf("scrub: %d corrupt, %d repaired, %d replicated, %d enqueued (%d objects)",
				rpt.Corrupt, rpt.Repaired, rpt.Replicated, rpt.Enqueued, rpt.Objects)
		}
		return nil
	})
	// Snapshot the registry into the time-series ring behind every
	// windowed answer.
	row("rollup", true, cfg.RollupEvery, 0.1, func(*obs.Span) error {
		reg.CaptureRollup(time.Now())
		return nil
	})
	// Halve the heat scores so the top-K tracks the current workload,
	// not all-time totals.
	row("heat.decay", true, time.Minute, 0.1, func(*obs.Span) error {
		reg.HeatKeys().Decay(0.5)
		reg.HeatObjects().Decay(0.5)
		return nil
	})
	row("slo", ev != nil, cfg.SLOEvery, 0.1, func(sp *obs.Span) error {
		for _, st := range ev.Evaluate(time.Now()) {
			if st.Violating {
				sp.Event(obs.EventSLO, fmt.Sprintf("%s violating burn=%.0f%%", st.Rule, st.BurnPct))
			}
		}
		return nil
	})
	// Flush the telemetry journal and prune aged-out incident bundles.
	row("telemetry", rec != nil, obs.DefaultTelemetryFlush, 0.1, func(*obs.Span) error {
		if err := rt.telem.Flush(reg, ev.AlertLog(), time.Now()); err != nil {
			return err
		}
		if cfg.TelemetryRet > 0 {
			rec.Prune(time.Now().Add(-cfg.TelemetryRet))
		}
		return nil
	})
}

// sloEvaluator parses -slo-rules and attaches the evaluator to the
// broker; nil when no rules are declared.
func (rt *Runtime) sloEvaluator(restored []obs.Alert) (*obs.SLOEvaluator, error) {
	cfg := rt.cfg
	if cfg.SLORules == "" {
		return nil, nil
	}
	src, err := os.ReadFile(cfg.SLORules)
	if err != nil {
		return nil, err
	}
	rules, err := obs.ParseSLORules(string(src))
	if err != nil {
		return nil, err
	}
	ev := obs.NewSLOEvaluator(rt.Broker.Metrics(), rules)
	// Restored alert history seeds the fresh log so `srb alerts` and
	// the telemetry journal's sequence numbers continue seamlessly.
	for _, a := range restored {
		ev.AlertLog().Add(a)
	}
	rt.Broker.SetSLO(ev)
	cfg.Logf("%d SLO rule(s) from %s, evaluated every %s", len(rules), cfg.SLORules, cfg.SLOEvery)
	return ev, nil
}

// flightRecorder wires incident bundles on SLO fire (or on demand via
// `srb incident capture`); the telemetry row of the job table flushes
// the journal and prunes aged-out bundles.
func (rt *Runtime) flightRecorder(ev *obs.SLOEvaluator) (*obs.IncidentRecorder, error) {
	cfg, b := rt.cfg, rt.Broker
	rec, err := obs.NewIncidentRecorder(obs.IncidentConfig{
		Dir:      filepath.Join(cfg.TelemetryDir, "incidents"),
		Server:   cfg.Name,
		Registry: b.Metrics(),
		Extra: func() map[string][]byte {
			files := make(map[string][]byte)
			if j, err := json.Marshal(report.Grid(rt.Env, 5*time.Minute)); err == nil {
				files["grid.json"] = j
			}
			if j, err := json.Marshal(b.Breakers().States()); err == nil {
				files["breakers.json"] = j
			}
			if j, err := json.Marshal(rt.Engine.Status()); err == nil {
				files["repair.json"] = j
			}
			return files
		},
	})
	if err != nil {
		return nil, err
	}
	b.SetIncidents(rec)
	if ev != nil {
		ev.SetOnFire(func(now time.Time, rule obs.SLORule, alert obs.Alert) {
			// Capture off the evaluation goroutine: the CPU profile
			// sleeps ~2s and must not stall the SLO job.
			go func() {
				meta, err := rec.Capture(now, rule.Name, "slo-fired", alert.Detail, rule.Window)
				switch {
				case err == nil:
					cfg.Logf("incident captured: %s", meta.ID)
				case !errors.Is(err, obs.ErrRateLimited):
					cfg.Logf("incident capture: %v", err)
				}
			}()
		})
	}
	cfg.Logf("flight recorder on %s (retention %s)", cfg.TelemetryDir, cfg.TelemetryRet)
	return rec, nil
}

// Start attaches the engine to the broker and runs it.
func (rt *Runtime) Start() {
	rt.Broker.SetRepair(rt.Engine)
	rt.Engine.Start()
	if n, _ := rt.Cat.RepairBacklog(); n > 0 {
		rt.cfg.Logf("repair queue restored with %d pending task(s)", n)
	}
}

// Serve listens on addr ("host:0" picks a port), serves h there until
// Stop, and returns the bound address. It is the one place an
// http.Server is built.
func (rt *Runtime) Serve(addr string, h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	rt.https = append(rt.https, srv)
	rt.served.Add(1)
	go func() {
		defer rt.served.Done()
		if err := srv.Serve(ln); err != http.ErrServerClosed {
			rt.cfg.Logf("http %s: %v", ln.Addr(), err)
		}
	}()
	return ln.Addr().String(), nil
}

// ServeAdmin serves the admin endpoint over Env on -admin-addr; without
// the flag it does nothing.
func (rt *Runtime) ServeAdmin() error {
	if rt.cfg.adminAddr == "" {
		return nil
	}
	bound, err := rt.Serve(rt.cfg.adminAddr, server.NewAdminHandler(rt.Env))
	if err != nil {
		return fmt.Errorf("admin listen: %w", err)
	}
	rt.cfg.Logf("admin endpoint on http://%s (/metrics /healthz /repair /grid /debug/pprof)", bound)
	return nil
}

// Run blocks until SIGINT or SIGTERM, then closes the main's own
// listeners and stops the runtime.
func (rt *Runtime) Run(listeners ...io.Closer) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	rt.cfg.Logf("shutting down")
	for _, l := range listeners {
		l.Close()
	}
	rt.Stop()
}

// shutdownGrace is how long Stop lets in-flight HTTP requests finish.
const shutdownGrace = 5 * time.Second

// Stop ends the daemon in a fixed order and logs each step: the HTTP
// listeners, so nothing new arrives; the engine, which waits for a
// catalog.save in flight (a pause defers rows, not this); the final
// snapshot; the journals; the telemetry journal, compacted so the run's
// history survives into the next; and one stats line, so the totals are
// in the log even when no scraper ever hit the admin endpoint.
func (rt *Runtime) Stop() {
	cfg, reg := rt.cfg, rt.Broker.Metrics()
	ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	for _, srv := range rt.https {
		if srv.Shutdown(ctx) != nil {
			srv.Close()
		}
	}
	cancel()
	rt.served.Wait()

	rt.Engine.Stop()
	n, _ := rt.Cat.RepairBacklog()
	cfg.Logf("repair engine stopped; %d task(s) left queued for the next start", n)

	if err := rt.store.Snapshot(); err != nil {
		cfg.Logf("snapshot: %v", err)
	} else if cfg.catalog != "" {
		cfg.Logf("catalog saved to %s", cfg.catalog)
	}
	if err := rt.store.Close(); err != nil {
		cfg.Logf("journal close: %v", err)
	}
	if rt.telem != nil {
		if err := rt.telem.Close(reg, rt.Broker.SLO().AlertLog(), time.Now()); err != nil {
			cfg.Logf("telemetry close: %v", err)
		} else {
			cfg.Logf("telemetry closed in %s", cfg.TelemetryDir)
		}
	}

	snap := reg.Snapshot()
	var ops, errs int64
	for _, o := range snap.Ops {
		ops += o.Count
		errs += o.Errors
	}
	cfg.Logf("final stats: uptime=%.0fs ops=%d errors=%d audit_dropped=%d",
		snap.UptimeSeconds, ops, errs, rt.Cat.AuditLog().Dropped())
}

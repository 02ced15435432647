// Package daemon is the runtime srbd and mysrbd share: accounts and
// storage resources from flag values, durable telemetry restored at
// boot, the repair engine with its maintenance jobs (scrub, rollup,
// heat.decay, slo, telemetry), the SLO evaluator and the flight
// recorder. Each main parses its own flags and calls in with the values.
package daemon

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"gosrb/internal/auth"
	"gosrb/internal/core"
	"gosrb/internal/obs"
	"gosrb/internal/repair"
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

// Config holds the settings of the shared runtime. Flags registers the
// ones both daemons spell identically; a main sets the rest from flags
// whose help text is its own.
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
	HeatDecay     time.Duration
	SLORules      string
	SLOEvery      time.Duration
	ExemplarMin   time.Duration
	TelemetryDir  string
	TelemetryRet  time.Duration

	// Extra, when set, adds the daemon's own state files to an incident
	// bundle, beside the breakers.json and repair.json every bundle gets.
	Extra func(files map[string][]byte)
}

// Flags registers on fs the flags srbd and mysrbd share word for word.
func Flags(fs *flag.FlagSet) *Config {
	c := new(Config)
	fs.StringVar(&c.Admin, "admin", "admin", "administrator user name")
	fs.StringVar(&c.AdminPw, "admin-pw", os.Getenv("SRB_ADMIN_PW"), "administrator password (or $SRB_ADMIN_PW)")
	fs.Var(&c.Users, "user", "user account: name=password; repeatable")
	fs.IntVar(&c.RepairWorkers, "repair-workers", 2, "background repair worker goroutines draining the async-replication/scrub queue (0 leaves the queue undrained)")
	fs.DurationVar(&c.ScrubEvery, "scrub-interval", 0, "anti-entropy scrub interval: re-hash every replica against the catalog checksum and repair divergence (0 disables)")
	fs.StringVar(&c.SLORules, "slo-rules", "", "SLO rules file, one rule per line (e.g. 'get p99 < 50ms over 5m'); empty disables SLO evaluation")
	fs.DurationVar(&c.SLOEvery, "slo-interval", 30*time.Second, "how often declared SLO rules are evaluated against the rollup ring")
	fs.DurationVar(&c.ExemplarMin, "exemplar-threshold", obs.DefaultExemplarThreshold, "retain a tail exemplar (trace ID) on latency buckets at or above this duration; 0 keeps one per bucket regardless")
	fs.StringVar(&c.TelemetryDir, "telemetry-dir", "", "flight recorder directory: durable telemetry journal plus incident bundles, restored at boot (empty disables)")
	fs.DurationVar(&c.TelemetryRet, "telemetry-retention", 24*time.Hour, "how much telemetry and incident history survives compaction (0 keeps whatever the rings retain)")
	return c
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

// Runtime is what a daemon runs beside its listener. New assembles it,
// the main adds any jobs of its own to Engine, Start runs it, Stop ends
// it.
type Runtime struct {
	// Authn knows the administrator and every -user account.
	Authn *auth.Authenticator
	// Engine drains the repair queue and schedules the maintenance jobs.
	Engine *repair.Engine

	cfg    *Config
	broker *core.Broker
	telem  *obs.TelemetryStore
}

// New restores durable telemetry into the broker's registry, enters
// the accounts, mounts the -resource values, and assembles the repair
// engine, its shared jobs, the SLO evaluator and the flight recorder.
// Nothing runs until Start, so history is restored before any job
// captures a new rollup.
func New(b *core.Broker, cfg *Config) (*Runtime, error) {
	rt := &Runtime{cfg: cfg, broker: b}
	reg := b.Metrics()
	reg.SetExemplarThreshold(cfg.ExemplarMin)
	var err error
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

	// Background maintenance: the repair engine drains the journaled
	// async-replication queue and runs every periodic job on a jittered
	// schedule.
	eng := repair.New(repair.Config{
		Workers:  cfg.RepairWorkers,
		Queue:    b.Cat,
		Exec:     b.RunRepairTask,
		Metrics:  reg,
		Breakers: b.Breakers(),
		Server:   cfg.Name,
	})
	rt.Engine = eng
	if cfg.ScrubEvery > 0 {
		eng.AddJob("scrub", cfg.ScrubEvery, 0.2, func(sp *obs.Span) error {
			rpt := b.ScrubSubtree("/", sp)
			if rpt.Corrupt+rpt.Repaired+rpt.Replicated+rpt.Enqueued > 0 {
				cfg.Logf("scrub: %d corrupt, %d repaired, %d replicated, %d enqueued (%d objects)",
					rpt.Corrupt, rpt.Repaired, rpt.Replicated, rpt.Enqueued, rpt.Objects)
			}
			return nil
		})
	}
	// Windowed telemetry rides the same scheduler: the rollup job
	// snapshots the registry into the time-series ring, the SLO job
	// evaluates declared objectives against it, and the decay job keeps
	// the heat top-K tracking the current workload.
	if cfg.RollupEvery > 0 {
		eng.AddJob("rollup", cfg.RollupEvery, 0.1, func(sp *obs.Span) error {
			reg.CaptureRollup(time.Now())
			return nil
		})
	}
	if cfg.HeatDecay > 0 {
		eng.AddJob("heat.decay", cfg.HeatDecay, 0.1, func(sp *obs.Span) error {
			reg.HeatKeys().Decay(0.5)
			reg.HeatObjects().Decay(0.5)
			return nil
		})
	}
	if cfg.SLORules != "" {
		src, err := os.ReadFile(cfg.SLORules)
		if err != nil {
			return nil, fmt.Errorf("slo rules: %w", err)
		}
		rules, err := obs.ParseSLORules(string(src))
		if err != nil {
			return nil, fmt.Errorf("slo rules: %w", err)
		}
		ev := obs.NewSLOEvaluator(reg, rules)
		// Restored alert history seeds the fresh log so `srb alerts` and
		// the telemetry journal's sequence numbers continue seamlessly.
		for _, a := range restoredAlerts {
			ev.AlertLog().Add(a)
		}
		b.SetSLO(ev)
		eng.AddJob("slo", cfg.SLOEvery, 0.1, func(sp *obs.Span) error {
			for _, st := range ev.Evaluate(time.Now()) {
				if st.Violating {
					sp.Event(obs.EventSLO, fmt.Sprintf("%s violating burn=%.0f%%", st.Rule, st.BurnPct))
				}
			}
			return nil
		})
		cfg.Logf("%d SLO rule(s) from %s, evaluated every %s", len(rules), cfg.SLORules, cfg.SLOEvery)
	}
	if rt.telem != nil {
		if err := rt.flightRecorder(); err != nil {
			return nil, fmt.Errorf("flight recorder: %w", err)
		}
	}
	return rt, nil
}

// flightRecorder wires incident bundles on SLO fire (or on demand via
// `srb incident capture`), and a journal flush job riding the repair
// scheduler that also prunes aged-out bundles.
func (rt *Runtime) flightRecorder() error {
	cfg, b := rt.cfg, rt.broker
	rec, err := obs.NewIncidentRecorder(obs.IncidentConfig{
		Dir:      filepath.Join(cfg.TelemetryDir, "incidents"),
		Server:   cfg.Name,
		Registry: b.Metrics(),
		Extra: func() map[string][]byte {
			files := make(map[string][]byte)
			if cfg.Extra != nil {
				cfg.Extra(files)
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
		return err
	}
	b.SetIncidents(rec)
	if ev := b.SLO(); ev != nil {
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
	rt.Engine.AddJob("telemetry", obs.DefaultTelemetryFlush, 0.1, func(sp *obs.Span) error {
		if err := rt.telem.Flush(b.Metrics(), rt.alertLog(), time.Now()); err != nil {
			return err
		}
		if cfg.TelemetryRet > 0 {
			rec.Prune(time.Now().Add(-cfg.TelemetryRet))
		}
		return nil
	})
	cfg.Logf("flight recorder on %s (retention %s)", cfg.TelemetryDir, cfg.TelemetryRet)
	return nil
}

// alertLog is the SLO evaluator's log, nil when no rules are declared.
func (rt *Runtime) alertLog() *obs.AlertLog {
	if ev := rt.broker.SLO(); ev != nil {
		return ev.AlertLog()
	}
	return nil
}

// Start attaches the engine to the broker and runs it.
func (rt *Runtime) Start() {
	rt.broker.SetRepair(rt.Engine)
	rt.Engine.Start()
}

// Stop ends the engine and compacts the telemetry journal one last
// time, so the run's history survives into the next.
func (rt *Runtime) Stop() {
	rt.Engine.Stop()
	if rt.telem != nil {
		if err := rt.telem.Close(rt.broker.Metrics(), rt.alertLog(), time.Now()); err != nil {
			rt.cfg.Logf("telemetry close: %v", err)
		}
	}
}

// Command mysrbd serves the MySRB web interface over an in-process SRB
// broker — the web gateway of the paper, available in the original at
// https://srb.npaci.edu/mySRB.html.
//
// Example:
//
//	mysrbd -addr :8080 \
//	       -resource disk1=posixfs:/var/srb/vault1 \
//	       -user curator=pw -catalog /var/srb/mcat.json
package main

import (
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	"gosrb/internal/core"
	"gosrb/internal/daemon"
	"gosrb/internal/mcat"
	"gosrb/internal/mysrb"
	"gosrb/internal/obs"
	"gosrb/internal/report"
	"gosrb/internal/server"
	"gosrb/internal/storage/memfs"
	"gosrb/internal/types"
)

// options is everything mysrbd's flags set.
type options struct {
	*daemon.Config
	addr, adminAddr, catalog string
	slowOp                   time.Duration
}

// defineFlags registers mysrbd's flags on fs.
func defineFlags(fs *flag.FlagSet) *options {
	o := &options{Config: daemon.Flags(fs)}
	fs.StringVar(&o.addr, "addr", ":8080", "HTTP listen address")
	fs.StringVar(&o.adminAddr, "admin-addr", "", "admin HTTP listen address for /metrics, /healthz, /grid and /debug/pprof (empty disables)")
	fs.StringVar(&o.catalog, "catalog", "", "MCAT snapshot to load/save")
	fs.DurationVar(&o.slowOp, "slow-op", 0, "log the full span tree of any web request slower than this (0 disables)")
	fs.DurationVar(&o.RollupEvery, "rollup-interval", obs.DefaultRollupInterval, "telemetry rollup capture interval feeding /metrics?window=, /grid and the dashboard (0 disables windowed stats)")
	fs.DurationVar(&o.HeatDecay, "heat-decay", time.Minute, "hot-key/hot-object score decay interval feeding the /heat page (0 disables decay)")
	fs.Var(&o.Resources, "resource", "resource: name=driver:arg; repeatable")
	return o
}

func main() {
	o := defineFlags(flag.CommandLine)
	flag.Parse()

	logger := log.New(os.Stderr, "mysrbd: ", log.LstdFlags)
	o.Name, o.Logf = "mysrb", logger.Printf

	cat := mcat.New(o.Admin, "local")
	if o.catalog != "" {
		if err := cat.LoadFile(o.catalog); err == nil {
			logger.Printf("catalog loaded from %s", o.catalog)
		}
	}
	broker := core.New(cat, o.Name)
	// The runtime srbd runs too: telemetry restored from the previous
	// run, accounts, -resource mounts, the repair engine with its scrub,
	// rollup, heat.decay, slo and telemetry jobs, the SLO evaluator and
	// the flight recorder — so the status pages are live here as well.
	rt, err := daemon.New(broker, o.Config)
	if err != nil {
		logger.Fatal(err)
	}
	if len(o.Resources) == 0 {
		// A usable default so the quickstart works out of the box.
		if err := broker.AddPhysicalResource(o.Admin, "disk1", types.ClassCache, "memfs", memfs.New()); err != nil {
			logger.Fatal(err)
		}
		logger.Printf("no -resource given; using in-memory resource disk1")
	}
	rt.Start()

	app := mysrb.New(broker, rt.Authn)
	app.SetSlowOpThreshold(o.slowOp)
	if o.adminAddr != "" {
		// mysrbd has no wire server, so it mounts the same admin mux
		// srbd serves over an env that reaches no zone and has no pool.
		ln, err := net.Listen("tcp", o.adminAddr)
		if err != nil {
			logger.Fatalf("admin listen: %v", err)
		}
		admin := &http.Server{
			Handler:           server.NewAdminHandler(report.Env{Name: broker.ServerName(), Broker: broker}),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			if err := admin.Serve(ln); err != nil && err != http.ErrServerClosed {
				logger.Printf("admin: %v", err)
			}
		}()
		logger.Printf("admin endpoint on http://%s (/metrics /healthz /grid /debug/pprof)", ln.Addr())
	}
	logger.Printf("MySRB version %s at http://%s/mySRB.html", obs.Version, o.addr)
	if o.catalog != "" {
		go func() {
			for range time.Tick(time.Minute) {
				cat.SaveFile(o.catalog)
			}
		}()
	}
	if err := http.ListenAndServe(o.addr, app); err != nil {
		logger.Fatal(err)
	}
}

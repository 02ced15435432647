// Command mysrbd serves the MySRB web interface over an in-process SRB
// broker — the web gateway of the paper, available in the original at
// https://srb.npaci.edu/mySRB.html. It runs the daemon lifecycle srbd
// runs: the catalog boots from -catalog (an unreadable snapshot refuses
// to start), is saved every minute and once more on SIGINT/SIGTERM; it
// keeps no journal, so a crash loses what the last minute changed.
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
	"os"
	"time"

	"gosrb/internal/daemon"
	"gosrb/internal/mysrb"
	"gosrb/internal/obs"
)

// options is everything mysrbd's flags set.
type options struct {
	*daemon.Config
	addr   string
	slowOp time.Duration
}

// defineFlags registers mysrbd's flags on fs.
func defineFlags(fs *flag.FlagSet) *options {
	o := &options{Config: daemon.Flags(fs)}
	fs.StringVar(&o.addr, "addr", ":8080", "HTTP listen address")
	fs.DurationVar(&o.slowOp, "slow-op", 0, "log the full span tree of any web request slower than this (0 disables)")
	return o
}

func main() {
	o := defineFlags(flag.CommandLine)
	flag.Parse()

	logger := log.New(os.Stderr, "mysrbd: ", log.LstdFlags)
	o.Name, o.Logf = "mysrb", logger.Printf
	if len(o.Resources) == 0 {
		// A usable default so the quickstart works out of the box.
		o.Resources = daemon.Repeated{"disk1=memfs:"}
		logger.Printf("no -resource given; using in-memory resource disk1")
	}
	// The runtime srbd runs too: the catalog, telemetry restored from
	// the previous run, accounts, -resource mounts, the repair engine
	// with the shared job table, the SLO evaluator and the flight
	// recorder — so the status pages are live here as well.
	rt, err := daemon.New(o.Config)
	if err != nil {
		logger.Fatal(err)
	}
	rt.Start()

	app := mysrb.New(rt.Broker, rt.Authn)
	app.SetSlowOpThreshold(o.slowOp)
	bound, err := rt.Serve(o.addr, app)
	if err != nil {
		logger.Fatalf("listen: %v", err)
	}
	logger.Printf("MySRB version %s at http://%s/mySRB.html", obs.Version, bound)
	// mysrbd has no wire server: the admin mux srbd serves runs here
	// over an env that reaches no zone and has no pool.
	if err := rt.ServeAdmin(); err != nil {
		logger.Fatal(err)
	}
	rt.Run()
}

// Command srbd runs a federated SRB server: it mounts storage drivers
// for the resources it owns, serves the wire protocol, participates in a
// zone with peer servers and, with -web-addr, serves the MySRB web
// interface over the same broker — the web gateway of the paper,
// available in the original at https://srb.npaci.edu/mySRB.html.
//
// Example:
//
//	srbd -addr :5544 -name srb1 -web-addr :8080 \
//	     -resource disk1=posixfs:/var/srb/vault1 \
//	     -resource cache1=memfs: \
//	     -resource arch1=archivefs:50ms \
//	     -user alice=alicepw \
//	     -peer srb2=host2:5544=zonesecret \
//	     -catalog /var/srb/mcat.json -journal /var/srb/mcat.journal
package main

import (
	"flag"
	"log"
	"os"
	"strings"
	"time"

	"gosrb/internal/daemon"
	"gosrb/internal/mcat/shard"
	"gosrb/internal/mysrb"
	"gosrb/internal/obs"
	"gosrb/internal/server"
)

// options is everything srbd's flags set.
type options struct {
	*daemon.Config
	addr, webAddr, mode, mcatFollow string
	quiet                           bool
	slowOp                          time.Duration
	peers, logicals, asyncRepl      daemon.Repeated
}

// defineFlags registers srbd's flags on fs.
func defineFlags(fs *flag.FlagSet) *options {
	o := &options{Config: daemon.Flags(fs)}
	fs.StringVar(&o.addr, "addr", ":5544", "listen address")
	fs.StringVar(&o.webAddr, "web-addr", "", "MySRB web interface listen address, served over this daemon's broker (empty disables)")
	fs.BoolVar(&o.quiet, "quiet", false, "log only errors (default logs every failed operation with op/remote/trace context)")
	fs.StringVar(&o.Name, "name", "srb1", "server name within the federation")
	fs.StringVar(&o.mcatFollow, "mcat-follow", "", "leader daemon's -peer name: this daemon's catalog becomes a read-only follower replicating every shard's journal stream from it over the peer link")
	fs.StringVar(&o.mode, "mode", "proxy", "federation mode: proxy or redirect")
	fs.DurationVar(&o.slowOp, "slow-op", 0, "log the full span tree of any operation slower than this (0 disables)")
	fs.Var(&o.logicals, "logical", "logical resource: name=member1,member2; repeatable")
	fs.Var(&o.asyncRepl, "async-repl", "async replication policy for a logical resource: name=k (k replicas written synchronously, the rest via the repair queue); repeatable")
	fs.Var(&o.peers, "peer", "federation peer: name=addr=secret; repeatable")
	return o
}

// syncEvery is how often a follower pulls its leader's journal stream.
const syncEvery = 2 * time.Second

func main() {
	o := defineFlags(flag.CommandLine)
	flag.Parse()

	logger := log.New(os.Stderr, "srbd: ", log.LstdFlags)
	o.Logf = logger.Printf

	// The shared runtime: the catalog booted from -catalog/-journal,
	// telemetry restored from the previous run, accounts, -resource
	// mounts, the repair engine with the shared job table, the SLO
	// evaluator and the flight recorder.
	rt, err := daemon.New(o.Config)
	if err != nil {
		logger.Fatal(err)
	}
	broker, cat := rt.Broker, rt.Cat
	for _, spec := range o.logicals {
		name, members, ok := strings.Cut(spec, "=")
		if !ok {
			logger.Fatalf("bad -logical %q (want name=m1,m2)", spec)
		}
		if _, err := cat.GetResource(name); err == nil {
			continue
		}
		if err := broker.AddLogicalResource(o.Admin, name, strings.Split(members, ",")); err != nil {
			logger.Fatalf("logical %s: %v", name, err)
		}
	}
	for _, spec := range o.asyncRepl {
		name, k, ok := strings.Cut(spec, "=")
		if !ok {
			logger.Fatalf("bad -async-repl %q (want name=k)", spec)
		}
		if err := cat.SetResourcePolicy(name, "async:"+k); err != nil {
			logger.Fatalf("async-repl %s: %v", name, err)
		}
		logger.Printf("resource %s replication policy async:%s", name, k)
	}

	fedMode := server.Proxy
	if o.mode == "redirect" {
		fedMode = server.Redirect
	}
	srv := server.New(broker, rt.Authn, fedMode)
	// The admin endpoint and the incident bundles' grid snapshot gather
	// from the whole zone, as the administrator.
	rt.Env = srv.AdminEnv(o.Admin)
	srv.SetSlowOpThreshold(o.slowOp)
	srv.Logger = obs.NewLogger(os.Stderr, o.Name, obs.LevelInfo)
	if o.quiet {
		srv.Logger.SetLevel(obs.LevelError)
	}
	for _, p := range o.peers {
		parts := strings.SplitN(p, "=", 3)
		if len(parts) != 3 {
			logger.Fatalf("bad -peer %q (want name=addr=secret)", p)
		}
		srv.AddPeer(parts[0], parts[1], parts[2])
	}

	// srbd's own rows of the job table: the shard gauges — replication
	// lag, which must keep climbing while nothing pulls, and the heat
	// imbalance — are recomputed once a minute.
	rt.Engine.AddJob("shard.gauges", time.Minute, 0.1, func(sp *obs.Span) error {
		cat.RefreshReplag(time.Now())
		cat.HeatJoin(broker.Metrics().HeatKeys().Snapshot())
		return nil
	})
	// Follower mode: every shard of this daemon's catalog replicates
	// the same-numbered shard of the leader daemon, a -peer, pulling the
	// lines of its journal from its position (or a snapshot when that
	// position is not in the journal) every syncEvery over the peer link.
	// Repeated pull failures promote the shards to leader.
	if leader := o.mcatFollow; leader != "" {
		if _, ok := srv.PeerAddr(leader); !ok {
			logger.Fatalf("-mcat-follow %s names no -peer", leader)
		}
		for i := 0; i < cat.N(); i++ {
			cat.SetFollower(i, leader)
		}
		cat.SetPuller(srv.ShardPuller(o.Admin), shard.DefaultPromoteAfter)
		rt.Engine.AddJob("shard.sync", syncEvery, 0.1, func(sp *obs.Span) error {
			err := cat.SyncOnce()
			cat.RefreshReplag(time.Now())
			return err
		})
		logger.Printf("mcat follower of %s (pull every %s)", leader, syncEvery)
	}
	rt.Start()

	bound, err := srv.Listen(o.addr)
	if err != nil {
		logger.Fatalf("listen: %v", err)
	}
	logger.Printf("%s version %s listening on %s (%s federation)", o.Name, obs.Version, bound, o.mode)
	if o.webAddr != "" {
		app := mysrb.New(broker, rt.Authn)
		app.SetSlowOpThreshold(o.slowOp)
		app.Logger = srv.Logger
		web, err := rt.Serve(o.webAddr, app)
		if err != nil {
			logger.Fatalf("web listen: %v", err)
		}
		logger.Printf("MySRB version %s at http://%s/mySRB.html", obs.Version, web)
	}
	if err := rt.ServeAdmin(); err != nil {
		logger.Fatal(err)
	}
	rt.Run(srv)
}

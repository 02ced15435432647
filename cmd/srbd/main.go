// Command srbd runs a federated SRB server: it mounts storage drivers
// for the resources it owns, serves the wire protocol, and participates
// in a zone with peer servers.
//
// Example:
//
//	srbd -addr :5544 -name srb1 \
//	     -resource disk1=posixfs:/var/srb/vault1 \
//	     -resource cache1=memfs: \
//	     -resource arch1=archivefs:50ms \
//	     -user alice=alicepw \
//	     -peer srb2=host2:5544=zonesecret \
//	     -catalog /var/srb/mcat.json
package main

import (
	"encoding/json"
	"flag"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"gosrb/internal/client"
	"gosrb/internal/core"
	"gosrb/internal/daemon"
	"gosrb/internal/mcat/shard"
	"gosrb/internal/obs"
	"gosrb/internal/resilience"
	"gosrb/internal/server"
)

// options is everything srbd's flags set.
type options struct {
	*daemon.Config
	addr, adminAddr, catalog, journal, mode, mcatFollow          string
	quiet                                                        bool
	mcatShards, brkTrip                                          int
	mcatSyncEvery, saveEvery, syncEvery, dialTO, brkCool, slowOp time.Duration
	peers, logicals, asyncRepl                                   daemon.Repeated
}

// defineFlags registers srbd's flags on fs.
func defineFlags(fs *flag.FlagSet) *options {
	o := &options{Config: daemon.Flags(fs)}
	fs.StringVar(&o.addr, "addr", ":5544", "listen address")
	fs.StringVar(&o.adminAddr, "admin-addr", "", "admin HTTP listen address for /metrics, /healthz and /debug/pprof (empty disables)")
	fs.BoolVar(&o.quiet, "quiet", false, "log only errors (default logs every failed operation with op/remote/trace context)")
	fs.StringVar(&o.Name, "name", "srb1", "server name within the federation")
	fs.StringVar(&o.catalog, "catalog", "", "MCAT snapshot file to load at start and save on exit")
	fs.StringVar(&o.journal, "journal", "", "MCAT append log; replayed over the snapshot at start, rotated at each snapshot")

	fs.IntVar(&o.mcatShards, "mcat-shards", 1, "MCAT partition count; 1 keeps the monolithic catalog and its on-disk layout, N shards the namespace across <catalog>.shard<i> files with scatter-gather queries")
	fs.StringVar(&o.mcatFollow, "mcat-follow", "", "leader daemon address: this daemon's catalog becomes a read-only follower replicating every shard's journal stream from it (admin credentials must match)")
	fs.DurationVar(&o.mcatSyncEvery, "mcat-sync-every", 2*time.Second, "follower replication pull interval (with -mcat-follow)")
	fs.StringVar(&o.mode, "mode", "proxy", "federation mode: proxy or redirect")
	fs.DurationVar(&o.saveEvery, "save-every", time.Minute, "catalog autosave interval (0 disables)")
	fs.DurationVar(&o.syncEvery, "sync-every", time.Minute, "dirty-replica sweep interval (0 disables)")
	fs.DurationVar(&o.dialTO, "dial-timeout", resilience.DialTimeout, "TCP dial timeout for federation peers")
	fs.IntVar(&o.brkTrip, "breaker-threshold", resilience.DefaultBreakerConfig.Threshold, "consecutive failures before a peer/resource circuit breaker opens")
	fs.DurationVar(&o.brkCool, "breaker-cooldown", resilience.DefaultBreakerConfig.Cooldown, "how long an open circuit breaker waits before a half-open probe")
	fs.DurationVar(&o.slowOp, "slow-op", 0, "log the full span tree of any operation slower than this (0 disables)")

	fs.DurationVar(&o.RollupEvery, "rollup-interval", obs.DefaultRollupInterval, "telemetry rollup capture interval feeding /metrics?window=, /grid and srb top (0 disables windowed stats)")
	fs.DurationVar(&o.HeatDecay, "heat-decay", time.Minute, "hot-key/hot-object score decay interval: each tick halves the heat scores so the top-K tracks the current workload, not all-time totals (0 disables decay)")

	fs.Var(&o.Resources, "resource", "physical resource: name=driver:arg (driver: posixfs|memfs|archivefs|dbfs); repeatable")
	fs.Var(&o.logicals, "logical", "logical resource: name=member1,member2; repeatable")
	fs.Var(&o.asyncRepl, "async-repl", "async replication policy for a logical resource: name=k (k replicas written synchronously, the rest via the repair queue); repeatable")
	fs.Var(&o.peers, "peer", "federation peer: name=addr=secret; repeatable")
	return o
}

func main() {
	o := defineFlags(flag.CommandLine)
	flag.Parse()

	logger := log.New(os.Stderr, "srbd: ", log.LstdFlags)
	o.Logf = logger.Printf

	// The catalog boots through the shard store. With -mcat-shards 1
	// (the default) this is exactly the old monolithic sequence — same
	// snapshot file, same journal file, same replay order; with N it
	// loads the journaled shard map and the per-shard file layout,
	// rebalancing first when the configured count changed.
	store, err := shard.Open(shard.OpenOptions{
		Shards:      o.mcatShards,
		CatalogPath: o.catalog,
		JournalPath: o.journal,
		Admin:       o.Admin,
		Domain:      "local",
		Logf:        logger.Printf,
	})
	if err != nil {
		logger.Fatalf("mcat: %v", err)
	}
	cat := store.Router()
	// snapshot saves every shard and rotates its journal; the fresh
	// journal swaps in *before* each save, so mutations concurrent with
	// the snapshot land in the new journal (replay is idempotent, so an
	// entry captured by both is harmless on recovery).
	snapshot := func() {
		if err := store.Snapshot(); err != nil {
			logger.Printf("snapshot: %v", err)
		}
	}
	broker := core.New(cat, o.Name)
	cat.SetMetrics(broker.Metrics())
	// Corrupt or truncated journal lines skipped during boot replay are
	// kept visible as a metric, not just a boot log line.
	broker.Metrics().Counter("mcat.journal.replay.skipped").Add(int64(store.ReplaySkipped))

	// The shared runtime: telemetry restored from the previous run,
	// accounts, -resource mounts, the repair engine with the scrub,
	// rollup, heat.decay, slo and telemetry jobs, the SLO evaluator and
	// the flight recorder, whose bundles here also carry the zone's grid
	// snapshot.
	var srv *server.Server
	o.Extra = func(files map[string][]byte) {
		if b, err := json.Marshal(srv.GridStat(5 * time.Minute)); err == nil {
			files["grid.json"] = b
		}
	}
	rt, err := daemon.New(broker, o.Config)
	if err != nil {
		logger.Fatal(err)
	}
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
	srv = server.New(broker, rt.Authn, fedMode)
	srv.SetDialTimeout(o.dialTO)
	srv.SetSlowOpThreshold(o.slowOp)
	broker.Breakers().SetConfig(resilience.BreakerConfig{Threshold: o.brkTrip, Cooldown: o.brkCool})
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

	// srbd's own jobs ride the runtime's scheduler: the shard gauges —
	// replication lag, which must keep climbing while nothing pulls, and
	// the heat imbalance — are recomputed once a minute.
	eng := rt.Engine
	eng.AddJob("shard.gauges", time.Minute, 0.1, func(sp *obs.Span) error {
		cat.RefreshReplag(time.Now())
		cat.HeatJoin(broker.Metrics().HeatKeys().Snapshot())
		return nil
	})
	// Follower mode: every shard of this daemon's catalog replicates
	// the same-numbered shard of the leader daemon, pulling journal
	// entries (or a snapshot when too far behind) on a repair-engine
	// job. Repeated pull failures promote the shards to leader.
	if leader := o.mcatFollow; leader != "" {
		for i := 0; i < cat.N(); i++ {
			cat.SetFollower(i, leader)
		}
		cat.SetPuller(func(peer string, shardIdx int, after uint64) (shard.PullResult, error) {
			cl, err := client.Dial(peer, o.Admin, o.AdminPw)
			if err != nil {
				return shard.PullResult{}, err
			}
			defer cl.Close()
			rep, err := cl.ShardPull(shardIdx, after)
			if err != nil {
				return shard.PullResult{}, err
			}
			return shard.PullResult{Entries: rep.Entries, Snapshot: rep.Snapshot, Seq: rep.Seq}, nil
		}, shard.DefaultPromoteAfter)
		eng.AddJob("shard.sync", o.mcatSyncEvery, 0.1, func(sp *obs.Span) error {
			err := cat.SyncOnce()
			cat.RefreshReplag(time.Now())
			return err
		})
		logger.Printf("mcat follower of %s (pull every %s)", leader, o.mcatSyncEvery)
	}
	rt.Start()
	if n, _ := cat.RepairBacklog(); n > 0 {
		logger.Printf("repair queue restored with %d pending task(s)", n)
	}

	bound, err := srv.Listen(o.addr)
	if err != nil {
		logger.Fatalf("listen: %v", err)
	}
	logger.Printf("%s version %s listening on %s (%s federation)", o.Name, obs.Version, bound, o.mode)
	if o.adminAddr != "" {
		abound, err := srv.ServeAdmin(o.adminAddr)
		if err != nil {
			logger.Fatalf("admin listen: %v", err)
		}
		logger.Printf("admin endpoint on http://%s (/metrics /healthz /debug/pprof)", abound)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if o.catalog != "" && o.saveEvery > 0 {
		go func() {
			for range time.Tick(o.saveEvery) {
				snapshot()
			}
		}()
	}
	if o.syncEvery > 0 {
		go func() {
			for range time.Tick(o.syncEvery) {
				if n, err := broker.SyncAllDirty(o.Admin); err == nil && n > 0 {
					logger.Printf("replica sweep refreshed %d replicas", n)
				}
			}
		}()
	}
	<-stop
	logger.Printf("shutting down")
	srv.Close()
	rt.Stop()
	if n, _ := cat.RepairBacklog(); n > 0 {
		logger.Printf("repair queue holds %d task(s); journal preserves them for the next start", n)
	}
	// One final stats line so the run's totals survive in the log even
	// when no scraper ever hit the admin endpoint.
	snap := broker.Metrics().Snapshot()
	var totalOps, totalErrs int64
	for _, o := range snap.Ops {
		totalOps += o.Count
		totalErrs += o.Errors
	}
	logger.Printf("final stats: uptime=%.0fs ops=%d errors=%d audit_dropped=%d",
		snap.UptimeSeconds, totalOps, totalErrs, cat.AuditLog().Dropped())
	snapshot()
	store.Close()
	if o.catalog != "" {
		logger.Printf("catalog saved to %s", o.catalog)
	}
}

// Command srb is the command-line client — the Scommands of the SRB
// distribution rolled into one binary with subcommands.
//
//	srb -server host:5544 -user alice ls /home
//	srb put local.dat /home/remote.dat -resource disk1
//	srb get /home/remote.dat out.dat
//	srb query /home survey=2mass 'mag>7'
//
// The password comes from $SRB_PASSWORD or -password.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"gosrb/internal/client"
	"gosrb/internal/mcat"
	"gosrb/internal/obs"
	"gosrb/internal/types"
	"gosrb/internal/wire"
)

func main() {
	var (
		serverAddr = flag.String("server", "127.0.0.1:5544", "SRB server address")
		user       = flag.String("user", os.Getenv("SRB_USER"), "user name (or $SRB_USER)")
		password   = flag.String("password", os.Getenv("SRB_PASSWORD"), "password (or $SRB_PASSWORD)")
	)
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	cl, err := client.Dial(*serverAddr, *user, *password)
	if err != nil {
		fatal(err)
	}
	defer cl.Close()
	if err := run(cl, args[0], args[1:]); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "srb:", err)
	os.Exit(1)
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: srb [flags] <command> [args]

commands:
  ls <coll>                          list a collection
  stat [-json] [path...]             describe paths; several paths go in
                                     one batched round trip; without a
                                     path, show server telemetry (op
                                     counts, latency quantiles, byte
                                     totals); -json emits the raw snapshot
  opstats                            server telemetry (alias of bare stat)
  top [-grid] [-window 5m] [-sort rate|p99|errors] [-phases] [-json]
                                     windowed rates and p50/p95/p99 from
                                     the rollup ring; -grid merges every
                                     zone member (dead peers flagged
                                     unreachable, not fatal); -sort
                                     orders the op table (default: name);
                                     -phases shows the per-phase latency
                                     decomposition instead of per-op rows
  alerts [-json]                     SLO rule standings and the bounded
                                     fire/resolve alert log
  incident list [-json]              flight recorder bundle index
  incident get <id> [-json]          download one incident bundle into
                                     ./<id>/ (-json prints the meta)
  incident capture [reason...]       capture an on-demand bundle (blocks
                                     ~2s for the CPU profile)
  peers [-json]                      peer transfer observatory: EWMA
                                     latency/bandwidth and success rate
                                     per federation peer and resource
  trace <id>                         span tree of a recent operation,
                                     gathered from every zone server
  why <id>                           phase waterfall of a recent
                                     operation: where each microsecond
                                     went (queue wait, catalog lookup,
                                     storage, federation hop...)
  usage [-json] [user [collection]]  per-user/collection usage accounting
  repair status [-json]              background repair engine: queue
                                     backlog, worker health, job runs
  shards [-json]                     catalog shards: role, replication
                                     position, staleness, entry counts,
                                     replication lag (entries/seconds)
  heat [-json]                       heat observatory: hot-key/hot-object
                                     top-K, per-shard replication lag and
                                     the rebalance advisor plan
  scrub <path>                       re-hash replicas against the catalog
                                     checksum and repair divergence
                                     (object: write perm; subtree: admin)
  checksum <path>                    verify every replica of one object,
                                     per-resource verdicts (read-only)
  mkdir <coll>                       create a collection
  rmdir <coll>                       remove an empty collection
  put <local> <path> [-resource r | -container c] [-type t]
  put -bulk <coll> <local>... [-resource r] [-batch n]
      [-batch-bytes b] [-batch-period d]
                                     ingest many files in batched round
                                     trips (flush at n files, b bytes, or
                                     d after the first buffered file)
  get <path> [local]                 retrieve (stdout when no local file)
  pget <path> <local> <streams>      parallel retrieve
  rm <path>                          delete an object
  rmreplica <path> <n>               delete one replica
  mv <src> <dst>                     logical move
  cp <src> <dst> [resource]          copy
  ln <target> <link>                 soft link
  replicate <path> <resource>        add a replica
  meta add <path> <name> <value> [units]
  meta ls <path> [class]             show metadata (user|system|type|file)
  annotate <path> <text>             add a comment
  annotations <path>                 list commentary
  query <scope> <cond>...            conjunctive query, conds like mag>7 name=like:m%%
  attrs <scope>                      list queryable attribute names
  chmod <path> <grantee> <level>     grant (none|read|annotate|write|own|curate)
  lock <path> <shared|exclusive>     lock for an hour
  unlock <path>
  checkout <path> / checkin <path> <local> [comment]
  mkcontainer <path> <resource>      create a container
  sql <path> [suffix]                execute a registered SQL object
  invoke <path> [args...]            run a method object
  resources                          list storage resources
  audit [user]                       show the audit trail tail (admin)
  stats                              server statistics
`)
}

func run(cl *client.Client, cmd string, args []string) error {
	switch cmd {
	case "ls":
		coll := "/"
		if len(args) > 0 {
			coll = args[0]
		}
		stats, err := cl.List(coll)
		if err != nil {
			return err
		}
		for _, st := range stats {
			kind := st.Kind.String()
			if st.IsCollect {
				kind = "collection"
			}
			fmt.Printf("%-12s %10d  %-10s %s\n", kind, st.Size, st.Owner, st.Path)
		}
		return nil

	case "stat":
		// With a path: describe it. Without: the server's telemetry
		// (-json dumps the snapshot for scripting).
		if len(args) > 0 && args[0] == "-json" {
			st, err := cl.OpStats()
			if err != nil {
				return err
			}
			// The reply carries the server's federation pool (PeerPool);
			// the client-side wire pool only this process can see rides
			// along so one scrape covers both ends of the path.
			pool := cl.PoolStats()
			out := struct {
				wire.OpStatsReply
				ClientPool wire.PoolStats
			}{st, pool}
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(out)
		}
		if len(args) == 0 {
			return printOpStats(cl)
		}
		if len(args) > 1 {
			// Many paths: one batched round trip, per-path outcomes.
			items, err := cl.BulkStat(args)
			if err != nil {
				return err
			}
			bad := 0
			for _, it := range items {
				if !it.OK {
					bad++
					fmt.Printf("%-12s %10s  %-10s %s  (%s)\n", "error", "-", "-", it.Path, it.ErrMsg)
					continue
				}
				st := it.Stat
				kind := st.Kind.String()
				if st.IsCollect {
					kind = "collection"
				}
				fmt.Printf("%-12s %10d  %-10s %s\n", kind, st.Size, st.Owner, st.Path)
			}
			if bad > 0 {
				return fmt.Errorf("%d path(s) failed", bad)
			}
			return nil
		}
		st, err := cl.Stat(args[0])
		if err != nil {
			return err
		}
		fmt.Printf("path: %s\nkind: %v\nsize: %d\nowner: %s\nreplicas: %d\nmodified: %s\n",
			st.Path, st.Kind, st.Size, st.Owner, st.Replicas, st.ModifiedAt.Format(time.RFC3339))
		return nil

	case "opstats":
		return printOpStats(cl)

	case "trace":
		rep, err := cl.Trace(need(args, 0, "trace id"))
		if err != nil {
			return err
		}
		if len(rep.Spans) == 0 {
			return fmt.Errorf("trace %s not found (rings may have wrapped)", args[0])
		}
		servers := map[string]bool{}
		for _, r := range rep.Spans {
			servers[r.Server] = true
		}
		fmt.Printf("trace %s: %d spans across %d server(s)\n", args[0], len(rep.Spans), len(servers))
		obs.WriteTree(os.Stdout, obs.AssembleTree(rep.Spans))
		return nil

	case "why":
		// Latency decomposition of one operation: the same spans `srb
		// trace` shows, rendered as a phase waterfall — each phase's
		// share of the span's wall time, sub-phases indented under their
		// parent, and the unattributed remainder called out.
		rep, err := cl.Trace(need(args, 0, "trace id"))
		if err != nil {
			return err
		}
		if len(rep.Spans) == 0 {
			return fmt.Errorf("trace %s not found (rings may have wrapped)", args[0])
		}
		servers := map[string]bool{}
		for _, r := range rep.Spans {
			servers[r.Server] = true
		}
		fmt.Printf("trace %s: %d spans across %d server(s)\n", args[0], len(rep.Spans), len(servers))
		obs.WriteWaterfall(os.Stdout, obs.AssembleTree(rep.Spans))
		return nil

	case "top":
		window := 5 * time.Minute
		grid, jsonOut, phases := false, false, false
		sortKey := ""
		for i := 0; i < len(args); i++ {
			switch args[i] {
			case "-grid":
				grid = true
			case "-json":
				jsonOut = true
			case "-phases":
				phases = true
			case "-window":
				i++
				if i >= len(args) {
					return fmt.Errorf("-window needs a duration (like 5m)")
				}
				d, err := time.ParseDuration(args[i])
				if err != nil || d <= 0 {
					return fmt.Errorf("bad -window %q (want a duration like 5m)", args[i])
				}
				window = d
			case "-sort":
				i++
				if i >= len(args) {
					return fmt.Errorf("-sort needs a key (rate, p99 or errors)")
				}
				switch args[i] {
				case "rate", "p99", "errors":
					sortKey = args[i]
				default:
					return fmt.Errorf("bad -sort %q (want rate, p99 or errors)", args[i])
				}
			default:
				return fmt.Errorf("unknown top flag %q (want -grid, -window, -sort, -phases, -json)", args[i])
			}
		}
		rep, err := cl.GridStat(window, grid)
		if err != nil {
			return err
		}
		if phases {
			rows := obs.PhaseRows(rep.Grid.Ops)
			if jsonOut {
				enc := json.NewEncoder(os.Stdout)
				enc.SetIndent("", "  ")
				return enc.Encode(rows)
			}
			return printPhases(rep, rows)
		}
		if jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(rep)
		}
		return printGrid(rep, sortKey)

	case "alerts":
		jsonOut := len(args) > 0 && args[0] == "-json"
		rep, err := cl.Alerts()
		if err != nil {
			return err
		}
		if jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(rep)
		}
		fmt.Printf("server: %s\n", rep.Server)
		if !rep.Enabled {
			fmt.Println("slo: no rules declared (start the daemon with -slo-rules)")
			return nil
		}
		for _, r := range rep.Rules {
			state := "ok"
			if r.Violating {
				state = "VIOLATING"
			}
			fmt.Printf("rule %-24s %-10s burn=%3.0f%%  (%s)\n", r.Rule, state, r.BurnPct, r.Raw)
		}
		if len(rep.Alerts) == 0 {
			fmt.Println("alert log: empty")
			return nil
		}
		fmt.Printf("\nalert log (%d transition(s)):\n", len(rep.Alerts))
		for _, a := range rep.Alerts {
			kind := "RESOLVED"
			if a.Firing {
				kind = "FIRED"
			}
			fmt.Printf("  %s %-8s %-24s %s\n", a.At.Format("15:04:05"), kind, a.Rule, a.Detail)
		}
		return nil

	case "incident":
		switch sub := need(args, 0, "subcommand (list|get|capture)"); sub {
		case "list":
			rep, err := cl.Incidents()
			if err != nil {
				return err
			}
			if len(args) > 1 && args[1] == "-json" {
				enc := json.NewEncoder(os.Stdout)
				enc.SetIndent("", "  ")
				return enc.Encode(rep)
			}
			fmt.Printf("server: %s\n", rep.Server)
			if !rep.Enabled {
				fmt.Println("flight recorder: disabled (start the daemon with -telemetry-dir)")
				return nil
			}
			if len(rep.Incidents) == 0 {
				fmt.Println("no incidents captured")
				return nil
			}
			for _, m := range rep.Incidents {
				fmt.Printf("%s  %-20s %-10s %d file(s)  %s\n",
					m.At.Format(time.RFC3339), m.Rule, m.Reason, len(m.Files), m.ID)
			}
			return nil
		case "get":
			id := need(args, 1, "incident id")
			rep, err := cl.IncidentGet(id)
			if err != nil {
				return err
			}
			// Default: dump the bundle into a local directory named after
			// the incident; -json prints the meta + file listing instead.
			if len(args) > 2 && args[2] == "-json" {
				enc := json.NewEncoder(os.Stdout)
				enc.SetIndent("", "  ")
				return enc.Encode(rep.Meta)
			}
			outDir := rep.Meta.ID
			if err := os.MkdirAll(outDir, 0o755); err != nil {
				return err
			}
			names := make([]string, 0, len(rep.Files))
			for name := range rep.Files {
				names = append(names, name)
			}
			sort.Strings(names)
			for _, name := range names {
				if err := os.WriteFile(outDir+"/"+name, rep.Files[name], 0o644); err != nil {
					return err
				}
				fmt.Printf("wrote %s/%s (%d bytes)\n", outDir, name, len(rep.Files[name]))
			}
			fmt.Printf("incident %s from %s: rule=%s reason=%s\n",
				rep.Meta.ID, rep.Server, rep.Meta.Rule, rep.Meta.Reason)
			return nil
		case "capture":
			reason := strings.Join(args[1:], " ")
			rep, err := cl.IncidentCapture(reason)
			if err != nil {
				return err
			}
			fmt.Printf("captured %s on %s (%d file(s))\n", rep.Meta.ID, rep.Server, len(rep.Meta.Files))
			return nil
		default:
			return fmt.Errorf("unknown incident subcommand %q (want list, get or capture)", sub)
		}

	case "peers":
		jsonOut := len(args) > 0 && args[0] == "-json"
		rep, err := cl.Peers()
		if err != nil {
			return err
		}
		if jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(rep)
		}
		fmt.Printf("server: %s\n", rep.Server)
		if len(rep.Peers) == 0 {
			fmt.Println("no transfer history recorded")
			return nil
		}
		fmt.Printf("%-16s %-12s %8s %6s %12s %10s %12s %8s\n",
			"PEER", "RESOURCE", "OPS", "ERRS", "BYTES", "EWMA_MS", "EWMA_MBPS", "SUCC%")
		for _, p := range rep.Peers {
			fmt.Printf("%-16s %-12s %8d %6d %12d %10.2f %12.2f %8.1f\n",
				p.Peer, p.Resource, p.Ops, p.Errors, p.Bytes,
				p.EWMALatMicros/1000, p.EWMABytesPerSec/1e6, p.SuccessPct)
		}
		return nil

	case "usage":
		jsonOut := false
		if len(args) > 0 && args[0] == "-json" {
			jsonOut = true
			args = args[1:]
		}
		filterUser, filterColl := "", ""
		if len(args) > 0 {
			filterUser = args[0]
		}
		if len(args) > 1 {
			filterColl = args[1]
		}
		rep, err := cl.Usage(filterUser, filterColl)
		if err != nil {
			return err
		}
		if jsonOut {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(rep)
		}
		fmt.Printf("server: %s\n", rep.Server)
		fmt.Printf("%-12s %-24s %8s %6s %12s %12s %10s\n",
			"USER", "COLLECTION", "OPS", "ERRS", "BYTES_IN", "BYTES_OUT", "AVG_MS")
		for _, e := range rep.Entries {
			avgMS := float64(0)
			if e.Ops > 0 {
				avgMS = float64(e.TotalMicros) / float64(e.Ops) / 1000
			}
			fmt.Printf("%-12s %-24s %8d %6d %12d %12d %10.2f\n",
				e.User, e.Collection, e.Ops, e.Errors, e.BytesIn, e.BytesOut, avgMS)
		}
		return nil

	case "repair":
		if need(args, 0, "subcommand (status)") != "status" {
			return fmt.Errorf("unknown repair subcommand %q (want: status)", args[0])
		}
		rep, err := cl.RepairStatus()
		if err != nil {
			return err
		}
		if len(args) > 1 && args[1] == "-json" {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(rep)
		}
		fmt.Printf("server: %s\n", rep.Server)
		if !rep.Enabled {
			fmt.Println("repair engine: not running")
			return nil
		}
		st := rep.Status
		state := "running"
		switch {
		case st.Wedged:
			state = "WEDGED"
		case st.Paused:
			state = "paused"
		}
		fmt.Printf("state: %s (%d/%d workers alive)\n", state, st.WorkersAlive, st.Workers)
		fmt.Printf("backlog: %d task(s), oldest %s\n", st.Backlog, st.OldestAge.Truncate(time.Second))
		fmt.Printf("lifetime: %d done, %d failed, %d retries\n", st.Done, st.Failed, st.Retries)
		for _, j := range st.Jobs {
			line := fmt.Sprintf("job %-12s every %-8s runs=%d errors=%d", j.Name, j.Interval, j.Runs, j.Errors)
			if !j.LastRun.IsZero() {
				line += " last=" + j.LastRun.Format(time.RFC3339)
			}
			if j.LastErr != "" {
				line += " lasterr=" + j.LastErr
			}
			fmt.Println(line)
		}
		return nil

	case "shards":
		rep, err := cl.Shards()
		if err != nil {
			return err
		}
		if len(args) > 0 && args[0] == "-json" {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(rep)
		}
		fmt.Printf("server: %s (%d shard(s))\n", rep.Server, len(rep.Shards))
		for _, sh := range rep.Shards {
			line := fmt.Sprintf("shard %-3d %-8s objects=%-6d colls=%-6d meta=%-6d applied=%d head=%d",
				sh.Shard, sh.Role, sh.Objects, sh.Collections, sh.MetaEntries, sh.Applied, sh.Head)
			if sh.Leader != "" {
				line += " leader=" + sh.Leader
			}
			if sh.Stale {
				line += " STALE"
			}
			if sh.PullFails > 0 {
				line += fmt.Sprintf(" pullfails=%d", sh.PullFails)
			}
			if sh.ReplagEntries > 0 || sh.ReplagSeconds > 0 {
				line += fmt.Sprintf(" replag=%d/%.0fs", sh.ReplagEntries, sh.ReplagSeconds)
			}
			fmt.Println(line)
		}
		return nil

	case "heat":
		rep, err := cl.Heat()
		if err != nil {
			return err
		}
		if len(args) > 0 && args[0] == "-json" {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			return enc.Encode(rep)
		}
		fmt.Printf("server: %s\n", rep.Server)
		if len(rep.Keys) == 0 && len(rep.Objects) == 0 {
			fmt.Println("no heat recorded yet")
		}
		if len(rep.Keys) > 0 {
			fmt.Printf("hot catalog keys (top %d):\n", len(rep.Keys))
			fmt.Printf("%-32s %10s %10s %12s\n", "KEY", "COUNT", "SCORE", "BYTES")
			for _, k := range rep.Keys {
				fmt.Printf("%-32s %10d %10.1f %12d\n", k.Key, k.Count, k.Score, k.Bytes)
			}
		}
		if len(rep.Objects) > 0 {
			fmt.Printf("\nhot objects (top %d):\n", len(rep.Objects))
			fmt.Printf("%-48s %10s %10s %12s\n", "OBJECT", "COUNT", "SCORE", "BYTES")
			for _, o := range rep.Objects {
				fmt.Printf("%-48s %10d %10.1f %12d\n", o.Key, o.Count, o.Score, o.Bytes)
			}
		}
		if len(rep.Shards) > 0 {
			fmt.Printf("\nshards:\n")
			fmt.Printf("%-5s %-8s %10s %10s %10s\n", "SHARD", "ROLE", "OBJECTS", "REPLAG_N", "REPLAG_S")
			for _, st := range rep.Shards {
				fmt.Printf("%-5d %-8s %10d %10d %10.0f\n",
					st.Shard, st.Role, st.Objects, st.ReplagEntries, st.ReplagSeconds)
			}
		}
		if rep.Plan != nil {
			fmt.Printf("\nrebalance plan (imbalance %.2fx -> %.2fx):\n",
				rep.Plan.Imbalance, rep.Plan.Projected)
			if rep.Plan.Note != "" {
				fmt.Println(rep.Plan.Note)
			}
			for _, m := range rep.Plan.Moves {
				fmt.Printf("  move %-32s shard %d -> %d (score %.1f, ~%d keys, ~%d bytes)\n",
					m.Key, m.From, m.To, m.Score, m.EstKeys, m.EstBytes)
			}
		}
		return nil

	case "scrub":
		rep, err := cl.Scrub(need(args, 0, "path"))
		if err != nil {
			return err
		}
		r := rep.Report
		fmt.Printf("scrub on %s: %d object(s), %d replica(s) scanned\n", rep.Server, r.Objects, r.Scanned)
		fmt.Printf("corrupt=%d repaired=%d replicated=%d enqueued=%d skipped=%d\n",
			r.Corrupt, r.Repaired, r.Replicated, r.Enqueued, r.Skipped)
		return nil

	case "checksum":
		rep, err := cl.Checksum(need(args, 0, "path"))
		if err != nil {
			return err
		}
		fmt.Printf("%s catalog=%s\n", rep.Path, rep.Checksum)
		bad := 0
		for _, v := range rep.Verdicts {
			line := fmt.Sprintf("replica %d on %-12s %-8s %s", v.Number, v.Resource, v.Status, v.Verdict)
			if v.Detail != "" {
				line += " (" + v.Detail + ")"
			}
			fmt.Println(line)
			if v.Verdict == "corrupt" || v.Verdict == "unreadable" {
				bad++
			}
		}
		if bad > 0 {
			return fmt.Errorf("%d replica(s) failed verification", bad)
		}
		return nil

	case "mkdir":
		return cl.Mkdir(need(args, 0, "collection"))

	case "rmdir":
		return cl.RmColl(need(args, 0, "collection"))

	case "put":
		if len(args) > 0 && args[0] == "-bulk" {
			return runBulkPut(cl, args[1:])
		}
		local, remote := need(args, 0, "local file"), need(args, 1, "path")
		opts := client.PutOpts{}
		for i := 2; i < len(args)-1; i += 2 {
			switch args[i] {
			case "-resource":
				opts.Resource = args[i+1]
			case "-container":
				opts.Container = args[i+1]
			case "-type":
				opts.DataType = args[i+1]
			}
		}
		// The file is streamed, never read whole: its size is no concern.
		f, err := os.Open(local)
		if err != nil {
			return err
		}
		defer f.Close()
		o, err := cl.PutFrom(remote, f, opts)
		if err != nil {
			return err
		}
		fmt.Printf("ingested %s (%d bytes, %d replicas)\n", o.Path(), o.Size, len(o.Replicas))
		return nil

	case "get":
		path := need(args, 0, "path")
		if len(args) < 2 {
			_, err := cl.GetTo(path, os.Stdout)
			return err
		}
		return writeLocal(args[1], func(f *os.File) error {
			_, err := cl.GetTo(path, f)
			return err
		})

	case "pget":
		path, local := need(args, 0, "path"), need(args, 1, "local file")
		streams := 4
		if len(args) > 2 {
			streams, _ = strconv.Atoi(args[2])
		}
		return writeLocal(local, func(f *os.File) error {
			_, err := cl.ParallelGetTo(path, streams, f)
			return err
		})

	case "rm":
		return cl.Delete(need(args, 0, "path"))

	case "rmreplica":
		n, err := strconv.Atoi(need(args, 1, "replica number"))
		if err != nil {
			return err
		}
		return cl.DeleteReplica(args[0], n)

	case "mv":
		return cl.Move(need(args, 0, "src"), need(args, 1, "dst"))

	case "cp":
		res := ""
		if len(args) > 2 {
			res = args[2]
		}
		return cl.Copy(need(args, 0, "src"), need(args, 1, "dst"), res)

	case "ln":
		return cl.Link(need(args, 0, "target"), need(args, 1, "link path"))

	case "replicate":
		rep, err := cl.Replicate(need(args, 0, "path"), need(args, 1, "resource"))
		if err != nil {
			return err
		}
		fmt.Printf("replica %d on %s\n", rep.Number, rep.Resource)
		return nil

	case "meta":
		sub := need(args, 0, "add|ls")
		switch sub {
		case "add":
			avu := types.AVU{Name: need(args, 2, "name"), Value: need(args, 3, "value")}
			if len(args) > 4 {
				avu.Units = args[4]
			}
			return cl.AddMeta(args[1], types.MetaUser, avu)
		case "ls":
			class := types.MetaUser
			if len(args) > 2 {
				switch args[2] {
				case "system":
					class = types.MetaSystem
				case "type":
					class = types.MetaType
				case "file":
					class = types.MetaFile
				}
			}
			avus, err := cl.GetMeta(need(args, 1, "path"), class)
			if err != nil {
				return err
			}
			for _, a := range avus {
				fmt.Printf("%-24s %-32s %s\n", a.Name, a.Value, a.Units)
			}
			return nil
		default:
			return fmt.Errorf("unknown meta subcommand %q", sub)
		}

	case "annotate":
		return cl.Annotate(need(args, 0, "path"), types.Annotation{Text: strings.Join(args[1:], " "), Kind: "comment"})

	case "annotations":
		anns, err := cl.Annotations(need(args, 0, "path"))
		if err != nil {
			return err
		}
		for _, a := range anns {
			fmt.Printf("[%s] %s: %s\n", a.Kind, a.Author, a.Text)
		}
		return nil

	case "query":
		scope := need(args, 0, "scope")
		q := mcat.Query{Scope: scope}
		for _, cond := range args[1:] {
			c, err := parseCond(cond)
			if err != nil {
				return err
			}
			q.Conds = append(q.Conds, c)
		}
		hits, partial, err := cl.QueryPartial(q)
		if err != nil {
			return err
		}
		for _, h := range hits {
			fmt.Println(h.Path)
		}
		if len(partial) > 0 {
			fmt.Fprintf(os.Stderr, "warning: partial result, no answer from %s\n", strings.Join(partial, ", "))
		}
		fmt.Fprintf(os.Stderr, "%d objects\n", len(hits))
		return nil

	case "attrs":
		names, err := cl.QueryAttrNames(need(args, 0, "scope"))
		if err != nil {
			return err
		}
		for _, n := range names {
			fmt.Println(n)
		}
		return nil

	case "chmod":
		return cl.Chmod(need(args, 0, "path"), need(args, 1, "grantee"), need(args, 2, "level"))

	case "lock":
		return cl.Lock(need(args, 0, "path"), need(args, 1, "shared|exclusive"), time.Hour)

	case "unlock":
		return cl.Unlock(need(args, 0, "path"))

	case "checkout":
		return cl.Checkout(need(args, 0, "path"))

	case "checkin":
		f, err := os.Open(need(args, 1, "local file"))
		if err != nil {
			return err
		}
		defer f.Close()
		comment := ""
		if len(args) > 2 {
			comment = strings.Join(args[2:], " ")
		}
		return cl.CheckinFrom(args[0], f, comment)

	case "mkcontainer":
		o, err := cl.MkContainer(need(args, 0, "path"), need(args, 1, "resource"))
		if err != nil {
			return err
		}
		fmt.Printf("container %s (%d segment replicas)\n", o.Path(), len(o.Replicas))
		return nil

	case "sql":
		suffix := ""
		if len(args) > 1 {
			suffix = strings.Join(args[1:], " ")
		}
		out, err := cl.ExecSQL(need(args, 0, "path"), suffix)
		if err != nil {
			return err
		}
		os.Stdout.Write(out)
		return nil

	case "invoke":
		out, err := cl.Invoke(need(args, 0, "path"), args[1:])
		if err != nil {
			return err
		}
		os.Stdout.Write(out)
		return nil

	case "audit":
		// srb audit [user] — admin-only view of the audit trail tail.
		filterUser := ""
		if len(args) > 0 {
			filterUser = args[0]
		}
		recs, err := cl.Audit(filterUser, "", "", 50)
		if err != nil {
			return err
		}
		for _, r := range recs {
			status := "ok"
			if !r.OK {
				status = "DENIED"
			}
			fmt.Printf("%s  %-8s %-12s %-30s %s %s\n",
				r.Time.Format("15:04:05"), r.User, r.Op, r.Target, status, r.Detail)
		}
		return nil

	case "resources":
		rs, err := cl.Resources()
		if err != nil {
			return err
		}
		for _, r := range rs {
			extra := r.Driver
			if r.Kind == types.ResourceLogical {
				extra = "members: " + strings.Join(r.Members, ",")
			}
			state := "online"
			if !r.Online {
				state = "OFFLINE"
			}
			fmt.Printf("%-12s %-9s %-10s %-8s %s\n", r.Name, r.Kind, r.Class, state, extra)
		}
		return nil

	case "stats":
		st, err := cl.ServerStats()
		if err != nil {
			return err
		}
		fmt.Printf("server: %s\nobjects: %d\ncollections: %d\nresources: %d\nusers: %d\n",
			st.Server, st.Objects, st.Collections, st.Resources, st.Users)
		return nil

	default:
		usage()
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// printOpStats renders the server's telemetry snapshot: the `srb stat`
// view of what the admin /metrics endpoint serves.
func printOpStats(cl *client.Client) error {
	st, err := cl.OpStats()
	if err != nil {
		return err
	}
	s := st.Snapshot
	if s.Version != "" {
		fmt.Printf("server: %s  version: %s  uptime: %.0fs\n", st.Server, s.Version, s.UptimeSeconds)
	} else {
		fmt.Printf("server: %s  uptime: %.0fs\n", st.Server, s.UptimeSeconds)
	}

	var ops []string
	for name, o := range s.Ops {
		if o.Count > 0 {
			ops = append(ops, name)
		}
	}
	if len(ops) > 0 {
		sort.Strings(ops)
		fmt.Printf("\n%-26s %8s %7s %10s %10s %10s\n", "op", "count", "errors", "p50(us)", "p90(us)", "p99(us)")
		for _, name := range ops {
			o := s.Ops[name]
			fmt.Printf("%-26s %8d %7d %10.1f %10.1f %10.1f\n",
				name, o.Count, o.Errors, o.P50Micros, o.P90Micros, o.P99Micros)
		}
	}

	var counters []string
	for name, v := range s.Counters {
		if v != 0 {
			counters = append(counters, name)
		}
	}
	if len(counters) > 0 {
		sort.Strings(counters)
		fmt.Printf("\ncounters:\n")
		for _, name := range counters {
			fmt.Printf("  %-36s %d\n", name, s.Counters[name])
		}
	}

	var gauges []string
	for name := range s.Gauges {
		gauges = append(gauges, name)
	}
	if len(gauges) > 0 {
		sort.Strings(gauges)
		fmt.Printf("\ngauges:\n")
		for _, name := range gauges {
			fmt.Printf("  %-36s %d\n", name, s.Gauges[name])
		}
	}

	if st.PeerPool != nil {
		p := *st.PeerPool
		fmt.Printf("\nfederation pool: %d conn(s), %d idle, dialed=%d evicted=%d reaped=%d\n",
			p.Conns, p.Idle, p.Dialed, p.Evicted, p.Reaped)
	}
	cp := cl.PoolStats()
	fmt.Printf("client pool: %d conn(s), %d idle, dialed=%d evicted=%d reaped=%d\n",
		cp.Conns, cp.Idle, cp.Dialed, cp.Evicted, cp.Reaped)

	if n := len(s.Traces); n > 0 {
		fmt.Printf("\nrecent traces (%d):\n", n)
		show := s.Traces
		if len(show) > 10 {
			show = show[len(show)-10:]
		}
		for _, t := range show {
			line := fmt.Sprintf("  %s %-14s %6dus", t.Trace, t.Op, t.Micros)
			if t.Err != "" {
				line += "  err: " + t.Err
			}
			fmt.Println(line)
		}
	}
	return nil
}

// printGrid renders a grid-stat reply: one status line per member,
// then the merged aggregate's windowed rates and quantiles. sortKey
// orders the op table: "" by name, "rate" by ops/sec, "p99" by p99
// latency, "errors" by windowed error rate (all descending).
func printGrid(rep wire.GridStatReply, sortKey string) error {
	fmt.Printf("grid via %s  window: %.0fs  members: %d\n", rep.Server, rep.WindowSeconds, len(rep.Members))
	for _, m := range rep.Members {
		status := "ok"
		switch {
		case m.Unreachable:
			status = "UNREACHABLE"
		case m.Stale:
			status = "stale"
		}
		line := fmt.Sprintf("  %-12s %-12s covered=%.0fs", m.Server, status, m.Window.CoveredSeconds)
		if m.Err != "" {
			line += "  " + m.Err
		}
		fmt.Println(line)
	}

	var ops []string
	for name, o := range rep.Grid.Ops {
		if o.Count > 0 {
			ops = append(ops, name)
		}
	}
	if len(ops) == 0 {
		fmt.Println("\nno op activity in the window")
		return nil
	}
	sort.Strings(ops)
	switch sortKey {
	case "rate":
		sort.SliceStable(ops, func(i, j int) bool {
			return rep.Grid.Ops[ops[i]].PerSec > rep.Grid.Ops[ops[j]].PerSec
		})
	case "p99":
		sort.SliceStable(ops, func(i, j int) bool {
			return rep.Grid.Ops[ops[i]].P99Micros > rep.Grid.Ops[ops[j]].P99Micros
		})
	case "errors":
		sort.SliceStable(ops, func(i, j int) bool {
			return rep.Grid.Ops[ops[i]].ErrorPct > rep.Grid.Ops[ops[j]].ErrorPct
		})
	}
	fmt.Printf("\n%-26s %8s %9s %7s %10s %10s %10s\n",
		"op", "count", "per_sec", "err%", "p50(us)", "p95(us)", "p99(us)")
	for _, name := range ops {
		o := rep.Grid.Ops[name]
		fmt.Printf("%-26s %8d %9.2f %7.2f %10.1f %10.1f %10.1f\n",
			name, o.Count, o.PerSec, o.ErrorPct, o.P50Micros, o.P95Micros, o.P99Micros)
	}

	var counters []string
	for name := range rep.Grid.Counters {
		counters = append(counters, name)
	}
	if len(counters) > 0 {
		sort.Strings(counters)
		fmt.Printf("\ncounters (delta / per_sec):\n")
		for _, name := range counters {
			c := rep.Grid.Counters[name]
			fmt.Printf("  %-36s %10d %10.2f\n", name, c.Delta, c.PerSec)
		}
	}
	return nil
}

// printPhases renders the latency decomposition of a grid-stat reply:
// one row per (side, op, phase) histogram, share computed against the
// op's summed phase time so the dominant phase stands out at a glance.
func printPhases(rep wire.GridStatReply, rows []obs.PhaseRow) error {
	fmt.Printf("phases via %s  window: %.0fs  members: %d\n", rep.Server, rep.WindowSeconds, len(rep.Members))
	for _, m := range rep.Members {
		status := "ok"
		switch {
		case m.Unreachable:
			status = "UNREACHABLE"
		case m.Stale:
			status = "stale"
		}
		line := fmt.Sprintf("  %-12s %-12s covered=%.0fs", m.Server, status, m.Window.CoveredSeconds)
		if m.Err != "" {
			line += "  " + m.Err
		}
		fmt.Println(line)
	}
	if len(rows) == 0 {
		fmt.Println("\nno phase activity in the window (phases ride the rollup ring; is -rollup-interval enabled?)")
		return nil
	}
	totals := make(map[string]int64, len(rows))
	for _, r := range rows {
		totals[r.Family+"."+r.Op] += r.TotalMicros
	}
	fmt.Printf("\n%-7s %-10s %-26s %8s %12s %7s %10s %10s\n",
		"side", "op", "phase", "count", "total(us)", "share", "p50(us)", "p99(us)")
	for _, r := range rows {
		share := 0.0
		if t := totals[r.Family+"."+r.Op]; t > 0 {
			share = 100 * float64(r.TotalMicros) / float64(t)
		}
		fmt.Printf("%-7s %-10s %-26s %8d %12d %6.1f%% %10.1f %10.1f\n",
			r.Family, r.Op, r.Phase, r.Count, r.TotalMicros, share, r.P50Micros, r.P99Micros)
	}
	return nil
}

// runBulkPut ingests many local files under one destination collection
// using batched bulkput round trips: the batcher flushes at -batch
// files, -batch-bytes buffered payload, or -batch-period after the
// first buffered file, whichever fires first. Items fail independently;
// the command reports per-file outcomes and fails if any file did.
func runBulkPut(cl *client.Client, args []string) error {
	opts := client.PutOpts{}
	policy := client.DefaultBatchPolicy
	var pos []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if !strings.HasPrefix(a, "-") {
			pos = append(pos, a)
			continue
		}
		if i+1 >= len(args) {
			return fmt.Errorf("flag %s needs a value", a)
		}
		v := args[i+1]
		i++
		switch a {
		case "-resource":
			opts.Resource = v
		case "-container":
			opts.Container = v
		case "-type":
			opts.DataType = v
		case "-batch":
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				return fmt.Errorf("bad -batch %q", v)
			}
			policy.Count = n
		case "-batch-bytes":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil || n <= 0 {
				return fmt.Errorf("bad -batch-bytes %q", v)
			}
			policy.Bytes = n
		case "-batch-period":
			d, err := time.ParseDuration(v)
			if err != nil || d <= 0 {
				return fmt.Errorf("bad -batch-period %q", v)
			}
			policy.Period = d
		default:
			return fmt.Errorf("unknown flag %s", a)
		}
	}
	if len(pos) < 2 {
		return fmt.Errorf("put -bulk needs a destination collection and at least one local file")
	}
	coll, locals := strings.TrimSuffix(pos[0], "/"), pos[1:]
	// The period flush runs on a timer goroutine, so the result sink
	// must be safe against concurrent reporting.
	var mu sync.Mutex
	okCount, failCount := 0, 0
	b := client.NewPutBatcher(cl, policy)
	b.OnFlush(func(results []wire.BulkItemStatus) {
		mu.Lock()
		defer mu.Unlock()
		for _, r := range results {
			if r.OK {
				okCount++
				fmt.Printf("ingested %s\n", r.Path)
			} else {
				failCount++
				fmt.Fprintf(os.Stderr, "srb: put %s: %s\n", r.Path, r.ErrMsg)
			}
		}
	})
	for _, local := range locals {
		data, err := os.ReadFile(local)
		if err != nil {
			return err
		}
		dest := coll + "/" + filepath.Base(local)
		if err := b.Add(client.BulkPut{Path: dest, Data: data, Opts: opts}); err != nil {
			return err
		}
	}
	if err := b.Close(); err != nil {
		return err
	}
	mu.Lock()
	defer mu.Unlock()
	fmt.Printf("bulk put: %d ok, %d failed (%d round trips)\n", okCount, failCount, b.Flushes())
	if failCount > 0 {
		return fmt.Errorf("%d file(s) failed", failCount)
	}
	return nil
}

// writeLocal streams a download into the local file at path. The bytes
// land in a temporary sibling that replaces path only once fill has
// succeeded, so a failed transfer neither truncates an existing file nor
// leaves a partial one.
func writeLocal(path string, fill func(*os.File) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), ".srb-get-*")
	if err != nil {
		return err
	}
	err = fill(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		if err = os.Chmod(f.Name(), 0o644); err == nil {
			err = os.Rename(f.Name(), path)
		}
	}
	if err != nil {
		os.Remove(f.Name())
	}
	return err
}

// need returns args[i] or exits with a usage message.
func need(args []string, i int, what string) string {
	if i >= len(args) {
		fatal(fmt.Errorf("missing argument: %s", what))
	}
	return args[i]
}

// parseCond parses "attr=val", "attr>val", "attr=like:pattern", ...
func parseCond(s string) (mcat.Condition, error) {
	for _, op := range []string{">=", "<=", "<>", "=", ">", "<"} {
		if i := strings.Index(s, op); i > 0 {
			attr, val := s[:i], s[i+len(op):]
			if op == "=" && strings.HasPrefix(val, "like:") {
				return mcat.Condition{Attr: attr, Op: "like", Value: strings.TrimPrefix(val, "like:")}, nil
			}
			if op == "=" && strings.HasPrefix(val, "notlike:") {
				return mcat.Condition{Attr: attr, Op: "not like", Value: strings.TrimPrefix(val, "notlike:")}, nil
			}
			return mcat.Condition{Attr: attr, Op: op, Value: val}, nil
		}
	}
	return mcat.Condition{}, fmt.Errorf("cannot parse condition %q (want attr=value, attr>value, attr=like:pat)", s)
}

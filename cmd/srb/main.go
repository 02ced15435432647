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
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"gosrb/internal/client"
	"gosrb/internal/durable"
	"gosrb/internal/mcat"
	"gosrb/internal/report"
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
	fmt.Fprintln(os.Stderr, errLine(err))
	os.Exit(1)
}

// errLine is err as srb reports it: prefixed "srb:" unless the message,
// as a server's does, already starts with it.
func errLine(err error) string {
	msg := err.Error()
	if !strings.HasPrefix(msg, "srb: ") {
		msg = "srb: " + msg
	}
	return msg
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: srb [flags] <command> [args]

commands:
  ls <coll>                          list a collection
  stat [path...]                     describe paths; several paths go in
                                     one batched round trip; without a
                                     path, the opstats report
%s  incident get <id> [-json]          download one incident bundle into
                                     ./<id>/ (-json prints the meta)
  incident capture [reason...]       capture an on-demand bundle (blocks
                                     ~2s for the CPU profile)
  why <id>                           trace <id> -waterfall
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
`, reportUsage())
}

// reportUsage lists the status reports, one entry per report row: its
// command line, then its help wrapped into the description column.
func reportUsage() string {
	var sb strings.Builder
	for _, r := range report.All {
		if r.Op == "" {
			continue
		}
		line := "  " + r.Synopsis()
		for _, word := range strings.Fields(r.Help) {
			if len(line) > 36 && len(line)+1+len(word) > 76 {
				sb.WriteString(line + "\n")
				line = ""
			}
			line = fmt.Sprintf("%-36s %s", line, word)
		}
		sb.WriteString(line + "\n")
	}
	return sb.String()
}

// runReport is the one driver behind every status verb: parse the words
// into the report's parameters, fetch the reply over the wire, print it
// as indented JSON (-json, wherever it stands) or as the report's
// rendering.
func runReport(cl *client.Client, r *report.Report, words []string) error {
	p, err := r.ParseWords(words)
	if err != nil {
		return err
	}
	rep, err := r.Fetch(cl.Call, p)
	if err != nil {
		return err
	}
	switch v := rep.(type) {
	case wire.OpStatsReply:
		// The reply carries the server's federation pool; the client-side
		// wire pool only this process can see rides along, so one scrape
		// covers both ends of the path.
		pool := cl.PoolStats()
		v.ClientPool = &pool
		rep = v
	case wire.GridStatReply:
		if p.Get("phases") == "1" {
			r, rep = report.Lookup("phases"), report.PhasesOf(v)
		}
	case wire.TraceReply:
		if len(v.Spans) == 0 {
			return fmt.Errorf("trace %s not found (rings may have wrapped)", p.Get("id"))
		}
	}
	if p.Get("json") == "1" {
		return printJSON(rep)
	}
	r.Render(rep, p).WriteText(os.Stdout)
	return nil
}

// printStatLine prints one listing row of ls and multi-path stat.
func printStatLine(st types.Stat) {
	kind := st.Kind.String()
	if st.IsCollect {
		kind = "collection"
	}
	fmt.Printf("%-12s %10d  %-10s %s\n", kind, st.Size, st.Owner, st.Path)
}

func printJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func run(cl *client.Client, cmd string, args []string) error {
	// A status report's verb is two words ("repair status") or one (the
	// switch's default).
	if len(args) > 0 {
		if r := report.Lookup(cmd + " " + args[0]); r != nil {
			return runReport(cl, r, args[1:])
		}
	}
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
			printStatLine(st)
		}
		return nil

	case "stat":
		// With a path: describe it. Without: the server's telemetry.
		if len(args) == 0 || args[0] == "-json" {
			return runReport(cl, report.Lookup("opstats"), args)
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
				printStatLine(it.Stat)
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

	case "why":
		// Latency decomposition of one operation: the spans `srb trace`
		// shows, drawn as a phase waterfall.
		return runReport(cl, report.Lookup("trace"), append(args, "-waterfall"))

	case "incident":
		switch sub := need(args, 0, "subcommand (list|get|capture)"); sub {
		case "get":
			id := need(args, 1, "incident id")
			rep, err := cl.IncidentGet(id)
			if err != nil {
				return err
			}
			// Default: dump the bundle into a local directory named after
			// the incident; -json prints the meta + file listing instead.
			if len(args) > 2 && args[2] == "-json" {
				return printJSON(rep.Meta)
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
				b := rep.Files[name]
				err := durable.Replace(outDir+"/"+name, func(w io.Writer) error {
					_, err := w.Write(b)
					return err
				})
				if err != nil {
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
		return writeLocal(args[1], func(f *durable.File) error {
			_, err := cl.GetTo(path, f)
			return err
		})

	case "pget":
		path, local := need(args, 0, "path"), need(args, 1, "local file")
		streams := 4
		if len(args) > 2 {
			streams, _ = strconv.Atoi(args[2])
		}
		return writeLocal(local, func(f *durable.File) error {
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

	default:
		if r := report.Lookup(cmd); r != nil && r.Op != "" {
			return runReport(cl, r, args)
		}
		usage()
		return fmt.Errorf("unknown command %q", cmd)
	}
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
// land in a durable.File that replaces path only once fill has
// succeeded, so a failed transfer neither truncates an existing file nor
// leaves a partial one.
func writeLocal(path string, fill func(*durable.File) error) error {
	f, err := durable.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Abort()
		return err
	}
	return f.Commit()
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

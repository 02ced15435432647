package server

import (
	"bytes"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"gosrb/internal/client"
	"gosrb/internal/mcat"
	stg "gosrb/internal/storage"
	"gosrb/internal/storage/memfs"
	"gosrb/internal/types"
	"gosrb/internal/wire"
)

// opConstants parses internal/wire/args.go and returns the value of
// every Op* string constant, so a constant added there without a table
// row or a handler fails the tests below.
func opConstants(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "../wire/args.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	ast.Inspect(f, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok {
			return true
		}
		for i, id := range vs.Names {
			if !strings.HasPrefix(id.Name, "Op") || i >= len(vs.Values) {
				continue
			}
			lit, ok := vs.Values[i].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				continue
			}
			v, err := strconv.Unquote(lit.Value)
			if err != nil {
				t.Fatal(err)
			}
			names = append(names, v)
		}
		return true
	})
	if len(names) < 60 {
		t.Fatalf("found only %d Op constants in args.go; the parse is off", len(names))
	}
	return names
}

// TestOpTable walks every wire.Op* constant: exactly one static row,
// exactly one handler, and the row's attributes as reviewed here.
func TestOpTable(t *testing.T) {
	consts := opConstants(t)
	rows := map[string]int{}
	for _, spec := range wire.Specs() {
		rows[spec.Name]++
	}
	for _, name := range consts {
		if rows[name] != 1 {
			t.Errorf("op %q has %d rows in wire's table, want exactly 1", name, rows[name])
		}
		if o := ops[name]; o == nil || o.run == nil || o.spec.Name != name {
			t.Errorf("op %q has no handler joined to its row", name)
		}
	}
	if len(ops) != len(consts) || len(wire.Specs()) != len(consts) {
		t.Errorf("%d constants, %d rows, %d handlers: a row or handler names no constant",
			len(consts), len(wire.Specs()), len(ops))
	}

	// The five ops whose request precedes a data stream, and no others.
	var streams []string
	for _, name := range consts {
		if wire.StreamsIn(name) {
			streams = append(streams, name)
		}
	}
	sort.Strings(streams)
	want := []string{wire.OpBulkPut, wire.OpCheckin, wire.OpIngest, wire.OpIngestReplica, wire.OpReingest}
	if strings.Join(streams, ",") != strings.Join(want, ",") {
		t.Errorf("stream-in ops = %v, want %v", streams, want)
	}

	// No mutating op is idempotent: the retry-safe ops are listed here,
	// so marking another row idempotent takes a deliberate edit of this
	// list too. (scrub converges on the catalog checksum; get may burn a
	// ticket use on a retry — both accepted, see wire/ops.go.)
	retrySafe := map[string]bool{}
	for _, name := range []string{
		wire.OpList, wire.OpStat, wire.OpGet, wire.OpGetObject, wire.OpReadRange, wire.OpGetMeta,
		wire.OpAnnotations, wire.OpQuery, wire.OpQueryAttrs, wire.OpResources, wire.OpServerStats,
		wire.OpOpStats, wire.OpShadowList, wire.OpShadowOpen, wire.OpExecSQL, wire.OpAudit,
		wire.OpTrace, wire.OpUsage, wire.OpRepairStatus, wire.OpChecksum, wire.OpScrub,
		wire.OpGridStat, wire.OpAlerts, wire.OpIncidents, wire.OpIncidentGet, wire.OpPeers,
		wire.OpMultiGet, wire.OpBulkStat, wire.OpHeat, wire.OpShards,
	} {
		retrySafe[name] = true
	}
	for _, name := range consts {
		if wire.Idempotent(name) != retrySafe[name] {
			t.Errorf("op %q idempotent = %v, want %v", name, wire.Idempotent(name), retrySafe[name])
		}
	}
	if wire.Idempotent("no-such-op") || wire.StreamsIn("no-such-op") || ops["no-such-op"] != nil {
		t.Error("an unknown op must be neither idempotent nor stream-in")
	}

	// Gates come from the rows.
	gates := map[string]wire.OpGate{
		wire.OpAddUser: wire.GateAdmin, wire.OpAudit: wire.GateAdmin, wire.OpShardPull: wire.GatePeerOrAdmin,
	}
	for _, name := range consts {
		if o := ops[name]; o != nil && o.spec.Gate != gates[name] {
			t.Errorf("op %q gate = %v, want %v", name, o.spec.Gate, gates[name])
		}
	}

	t.Run("hot ops", testHotOpCodecs)
}

// testHotOpCodecs: each hot op's args and reply types have binary
// codecs, and the client, the server and this table use the same Go type
// per op. A body decodes only into the type it was encoded from, so a
// raw request built from the row's args type that the server answers,
// with a reply that decodes into the row's reply type, pins the server's
// types; the client method then succeeding pins the client's.
func testHotOpCodecs(t *testing.T) {
	_, _, addr := bootOne(t, map[string]stg.Driver{"disk1": memfs.New()}, nil, "")
	cl := dialT(t, addr)
	meta := []types.AVU{{Name: "k", Value: "v"}}
	if _, err := cl.Put("/home/f", []byte("hot"), client.PutOpts{Resource: "disk1", Meta: meta}); err != nil {
		t.Fatal(err)
	}
	q := mcat.Query{Scope: "/home", Conds: []mcat.Condition{{Attr: "k", Op: "=", Value: "v"}}}
	user := types.AVU{Name: "k2", Value: "v2"}
	ann := types.Annotation{Kind: "comment", Text: "t"}
	ok := func(_ any, err error) error { return err }
	rows := []struct {
		op          string
		args, reply any
		data        []byte // the request's stream, for an op that sends one
		call        func() error
	}{
		{wire.OpStat, wire.PathArgs{Path: "/home/f"}, types.Stat{}, nil, func() error { return ok(cl.Stat("/home/f")) }},
		{wire.OpList, wire.PathArgs{Path: "/home"}, []types.Stat{}, nil, func() error { return ok(cl.List("/home")) }},
		{wire.OpGetObject, wire.PathArgs{Path: "/home/f"}, types.DataObject{}, nil, func() error { return ok(cl.GetObject("/home/f")) }},
		{wire.OpGet, wire.PathArgs{Path: "/home/f"}, wire.SizeReply{}, nil, func() error { return ok(cl.Get("/home/f")) }},
		{wire.OpReadRange, wire.RangeArgs{Path: "/home/f", Length: 2}, wire.SizeReply{}, nil, func() error { return ok(cl.GetRange("/home/f", 0, 2)) }},
		{wire.OpIngest, wire.IngestArgs{Path: "/home/raw", Resource: "disk1", Meta: meta}, types.DataObject{}, []byte("raw"),
			func() error { return ok(cl.Put("/home/cl", []byte("cl"), client.PutOpts{Resource: "disk1"})) }},
		{wire.OpAddMeta, wire.MetaArgs{Path: "/home/f", Class: int(types.MetaUser), AVU: user}, struct{}{}, nil,
			func() error { return cl.AddMeta("/home/f", types.MetaUser, types.AVU{Name: "k3"}) }},
		{wire.OpGetMeta, wire.GetMetaArgs{Path: "/home/f", Class: int(types.MetaUser)}, []types.AVU{}, nil,
			func() error { return ok(cl.GetMeta("/home/f", types.MetaUser)) }},
		{wire.OpAnnotate, wire.AnnotateArgs{Path: "/home/f", Ann: ann}, struct{}{}, nil, func() error { return cl.Annotate("/home/f", ann) }},
		{wire.OpQuery, wire.QueryArgs{Q: q}, wire.QueryReply{}, nil, func() error { return ok(cl.Query(q)) }},
		{wire.OpMultiGet, wire.MultiGetArgs{Paths: []string{"/home/f"}}, wire.MultiGetReply{}, nil, func() error { return ok(cl.MultiGet([]string{"/home/f"})) }},
		{wire.OpBulkStat, wire.BulkStatArgs{Paths: []string{"/home/f"}}, wire.BulkStatReply{}, nil, func() error { return ok(cl.BulkStat([]string{"/home/f"})) }},
		{wire.OpMkdir, wire.PathArgs{Path: "/home/d1"}, struct{}{}, nil, func() error { return cl.Mkdir("/home/d2") }},
		{wire.OpDelete, wire.PathArgs{Path: "/home/raw"}, struct{}{}, nil, func() error { return cl.Delete("/home/cl") }},
	}
	c := rawConn(t, addr, "alice", "alicepw")
	for i, row := range rows {
		args := mustArgs(t, row.args)
		if err := wire.DecodeBody(args, new(any)); !errors.Is(err, types.ErrInvalid) {
			t.Errorf("%s: args %T have no binary codec", row.op, row.args)
		}
		if err := c.WriteRequest(&wire.Request{ID: uint64(i + 1), Op: row.op, Args: args}); err != nil {
			t.Fatal(err)
		}
		if wire.StreamsIn(row.op) {
			if err := c.SendData(bytes.NewReader(row.data)); err != nil {
				t.Fatal(err)
			}
		}
		var resp wire.Response
		if err := readResp(c, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.DataFollows {
			if _, err := c.RecvData(io.Discard); err != nil {
				t.Fatal(err)
			}
		}
		if !resp.OK {
			t.Errorf("%s with %T args: %v", row.op, row.args, resp.Err())
			continue
		}
		out := reflect.New(reflect.TypeOf(row.reply)).Interface()
		if err := wire.DecodeBody(resp.Body, &out); err != nil {
			t.Errorf("%s: reply does not decode as %T: %v", row.op, row.reply, err)
		}
		if err := wire.DecodeBody(resp.Body, new(any)); !errors.Is(err, types.ErrInvalid) {
			t.Errorf("%s: reply %T has no binary codec", row.op, row.reply)
		}
		if err := row.call(); err != nil {
			t.Errorf("%s through the client: %v", row.op, err)
		}
	}
}

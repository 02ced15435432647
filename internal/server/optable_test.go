package server

import (
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"strconv"
	"strings"
	"testing"

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
}

package server

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"gosrb/internal/client"
	"gosrb/internal/mcat"
	"gosrb/internal/report"
	stg "gosrb/internal/storage"
	"gosrb/internal/storage/memfs"
	"gosrb/internal/types"
	"gosrb/internal/wire"
)

// TestCatalogPinsNoSlab is the retention fence of the args slab: puts,
// gets and listings, each followed by enough idempotent requests to roll
// the slot's slab, leave the heap no larger, request for request, than
// the same requests alone. An idempotent op's argument strings are cut
// from the slab, and a string held anywhere pins the whole slab it was
// cut from: a catalog row built from such a string would pin one slab
// (4 KiB) per put here, and an audit record of a get or a listing that
// kept its path uncopied one per read. Each arm warms up first, so the
// bounded holders (the trace ring, the audit log's first block, the
// tables) are as full as they get before the heap is measured.
func TestCatalogPinsNoSlab(t *testing.T) {
	const (
		warm  = 300
		n     = 300
		reads = 8 // of a ~600-byte args: a slab serves six or seven
		slack = 1 << 10
	)
	long := "/home/" + strings.Repeat("r", 600)
	type arm struct {
		name string
		// setup readies p for op before the warm-up.
		setup func(cl *client.Client, p string) error
		op    func(cl *client.Client, p string) error
	}
	put := func(cl *client.Client, p string) error {
		_, err := cl.Put(p, []byte("x"), client.PutOpts{Resource: "d1"})
		return err
	}
	arms := []arm{
		{name: "put", op: put},
		{name: "get", setup: put, op: func(cl *client.Client, p string) error {
			_, err := cl.Get(p)
			return err
		}},
		{name: "ls", setup: func(cl *client.Client, p string) error { return cl.Mkdir(p) },
			op: func(cl *client.Client, p string) error {
				_, err := cl.List(p)
				return err
			}},
	}
	perOp := func(a arm, tag string, reads int) float64 {
		_, _, addr := bootOne(t, map[string]stg.Driver{"d1": memfs.New()}, nil, "")
		cl, err := client.Dial(addr, "alice", "alicepw")
		if err != nil {
			t.Fatal(err)
		}
		if err := put(cl, long); err != nil {
			t.Fatal(err)
		}
		paths := make([]string, warm+n)
		for i := range paths {
			paths[i] = fmt.Sprintf("/home/%s%s%05d", a.name, tag, i)
			if a.setup != nil {
				if err := a.setup(cl, paths[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		round := func(p string) {
			if err := a.op(cl, p); err != nil {
				t.Fatal(err)
			}
			for r := 0; r < reads; r++ {
				if _, err := cl.Stat(long); err != nil {
					t.Fatal(err)
				}
			}
		}
		for _, p := range paths[:warm] {
			round(p)
		}
		before := settledHeap()
		for _, p := range paths[warm:] {
			round(p)
		}
		// The slot's own slab goes with its connection.
		cl.Close()
		after := settledHeap()
		return (float64(after) - float64(before)) / n
	}
	for _, a := range arms {
		alone, interleaved := perOp(a, "a", 0), perOp(a, "b", reads)
		if interleaved > alone+slack {
			t.Errorf("heap per %s: %.0f B with %d stats after each, %.0f B alone; at most %d B more", a.name, interleaved, reads, alone, slack)
		} else {
			t.Logf("heap per %s: %.0f B with %d stats after each, %.0f B alone (at most %d B more)", a.name, interleaved, reads, alone, slack)
		}
	}
}

// settledHeap is the live heap once what a closed connection held has
// been collected: its reader loop and slots exit on their own schedule.
func settledHeap() uint64 {
	var ms runtime.MemStats
	for i := 0; i < 3; i++ {
		time.Sleep(20 * time.Millisecond)
		runtime.GC()
	}
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestArgsSlabIsTheIdempotentRows: the rows whose argument strings are
// cut from the slot's slab are exactly the idempotent rows. Every row
// that decodes its arguments in via is dispatched in a fresh session
// with each hot argument type in turn; a type that is the row's own
// decodes (whatever the handler then makes of it), and the session's
// slab must then hold its strings if and only if the row is idempotent.
// The status feeds decode their arguments in their report rows, with a
// copy of their own.
func TestArgsSlabIsTheIdempotentRows(t *testing.T) {
	_, s, _ := bootOne(t, map[string]stg.Driver{"d1": memfs.New()}, nil, "")
	feeds := map[string]bool{}
	for _, r := range report.All {
		feeds[r.Op] = true
	}
	nc, drain := net.Pipe()
	go io.Copy(io.Discard, drain)
	t.Cleanup(func() { nc.Close(); drain.Close() })
	w := &connWriter{c: wire.NewConn(nc), nc: nc}
	const probe = "/home/slab-probe"
	samples := []any{
		wire.PathArgs{Path: probe},
		wire.IngestArgs{Path: probe, Resource: "d1"},
		wire.MetaArgs{Path: probe, Class: int(types.MetaUser), AVU: types.AVU{Name: "k", Value: "v"}},
		wire.GetMetaArgs{Path: probe, Class: int(types.MetaUser)},
		wire.AnnotateArgs{Path: probe, Ann: types.Annotation{Text: "t"}},
		wire.RangeArgs{Path: probe},
		wire.QueryArgs{Q: mcat.Query{Scope: probe}},
		wire.MultiGetArgs{Paths: []string{probe}},
		wire.BulkStatArgs{Paths: []string{probe}},
	}
	decoded := map[string]bool{}
	for _, spec := range wire.Specs() {
		if feeds[spec.Name] {
			continue
		}
		for _, sample := range samples {
			// As the catalog's administrator, so no gate stops a row
			// before it decodes.
			ss := &session{user: "admin", remote: "probe", w: w}
			ss.req = wire.Request{ID: 1, Op: spec.Name, Args: mustArgs(t, sample)}
			ss.reqID, ss.enqueued = 1, time.Now()
			if spec.StreamsIn {
				ss.in = emptyStream(t)
			}
			w.unanswered.Add(1)
			s.dispatch(ss)
			if ss.opErr != nil && strings.Contains(ss.opErr.Error(), "encodes another type") {
				continue // not the row's argument type
			}
			decoded[spec.Name] = true
			if inSlab := ss.slab.Len() > 0; inSlab != spec.Idempotent {
				t.Errorf("op %s (idempotent %v) with %T args: strings cut from the slab = %v",
					spec.Name, spec.Idempotent, sample, inSlab)
			}
		}
	}
	t.Logf("%d rows decoded a sample", len(decoded))
	for _, op := range []string{
		wire.OpStat, wire.OpList, wire.OpGet, wire.OpGetObject, wire.OpReadRange, wire.OpGetMeta,
		wire.OpQuery, wire.OpMultiGet, wire.OpBulkStat, wire.OpScrub, wire.OpChecksum,
		wire.OpIngest, wire.OpReingest, wire.OpAddMeta, wire.OpAnnotate, wire.OpDelete, wire.OpMkdir,
	} {
		if !decoded[op] {
			t.Errorf("op %s decoded none of the samples", op)
		}
	}
}

// emptyStream is an inbound data stream that carries no bytes.
func emptyStream(t *testing.T) *wire.DataReader {
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	go wire.NewConn(a).SendData(strings.NewReader(""))
	return wire.NewConn(b).OpenData()
}

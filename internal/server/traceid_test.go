package server

import (
	"errors"
	"net/http"
	"strings"
	"testing"

	"gosrb/internal/client"
	"gosrb/internal/report"
	stg "gosrb/internal/storage"
	"gosrb/internal/storage/memfs"
	"gosrb/internal/types"
	"gosrb/internal/wire"
)

// TestTraceIDInput holds every surface a trace ID enters by from
// outside to the one parse: `srb trace ID`, `srb why ID`, the admin
// /trace/{id} route, a TraceArgs body and an audit filter's. A
// well-formed ID in either case finds its trace; the empty string is no
// ID, which the trace surfaces refuse and the audit filter reads as "no
// filter", as they always did; anything else is refused as invalid (400
// on the admin route), and none of them reads as trace 0.
func TestTraceIDInput(t *testing.T) {
	b, s, addr := bootOne(t, map[string]stg.Driver{"d1": memfs.New()}, nil, "")
	adminAddr := serveAdmin(t, s)
	cl := dialT(t, addr)
	if _, err := cl.Put("/home/x", []byte("hello"), client.PutOpts{Resource: "d1"}); err != nil {
		t.Fatal(err)
	}
	// A get is audited under its trace.
	if _, err := cl.Get("/home/x"); err != nil {
		t.Fatal(err)
	}
	trace := cl.LastTrace()
	// An untraced audit record: trace 0 must match no ID.
	b.Audit.Op("alice", "untraced", "/home/x", true, "")
	admin, err := client.Dial(addr, "admin", "adminpw")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { admin.Close() })

	hex := trace.String()
	const (
		refused = iota // ErrInvalid, HTTP 400
		found          // the trace's spans and audit records
		empty          // no ID: trace refuses it, audit matches all
	)
	for _, c := range []struct {
		name, id string
		want     int
	}{
		{"lower case", hex, found},
		{"upper case", strings.ToUpper(hex), found},
		{"empty", "", empty},
		{"15 digits", hex[1:], refused},
		{"17 digits", hex + "0", refused},
		{"non-hex", hex[:15] + "g", refused},
		{"zero", "0", refused},
		{"all zero", "0000000000000000", refused},
		{"signed", "+" + hex[1:], refused},
	} {
		t.Run(c.name, func(t *testing.T) {
			// srb trace and srb why: the report row's words, fetched.
			rp := report.Lookup("trace")
			for _, words := range [][]string{{c.id}, {c.id, "-waterfall"}} {
				p, err := rp.ParseWords(words)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := rp.Fetch(cl.Call, p)
				switch c.want {
				case found:
					if tr, ok := rep.(wire.TraceReply); err != nil || !ok || len(tr.Spans) == 0 || tr.Spans[0].Trace != trace {
						t.Errorf("srb trace %v = %+v, %v; want the get's spans", words, rep, err)
					}
				default:
					if !errors.Is(err, types.ErrInvalid) {
						t.Errorf("srb trace %v = %v, want invalid", words, err)
					}
				}
			}

			// The admin route.
			resp, err := http.Get("http://" + adminAddr + "/trace/" + c.id)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if want := map[int]int{found: http.StatusOK, refused: http.StatusBadRequest, empty: http.StatusBadRequest}[c.want]; resp.StatusCode != want {
				t.Errorf("admin /trace/%s = %d, want %d", c.id, resp.StatusCode, want)
			}

			// TraceArgs as a client of another build could send it.
			var tr wire.TraceReply
			err = cl.Call(wire.OpTrace, struct{ ID string }{c.id}, &tr)
			switch c.want {
			case found:
				if err != nil || len(tr.Spans) == 0 {
					t.Errorf("trace op = %d spans, %v", len(tr.Spans), err)
				}
			default:
				if !errors.Is(err, types.ErrInvalid) {
					t.Errorf("trace op = %v, want invalid", err)
				}
			}

			// The audit filter.
			var recs []types.AuditRecord
			err = admin.Call(wire.OpAudit, struct{ Trace string }{c.id}, &recs)
			switch c.want {
			case refused:
				if !errors.Is(err, types.ErrInvalid) {
					t.Errorf("audit filter = %d records, %v; want invalid", len(recs), err)
				}
			case found:
				if err != nil || len(recs) == 0 {
					t.Fatalf("audit filter = %d records, %v", len(recs), err)
				}
				for _, r := range recs {
					if r.Trace != trace {
						t.Errorf("audit filter on %s returned %+v", c.id, r)
					}
				}
			case empty:
				if err != nil || len(recs) == 0 || recs[len(recs)-1].Op != "untraced" {
					t.Errorf("unfiltered audit = %d records, %v; want every record", len(recs), err)
				}
			}
		})
	}
}

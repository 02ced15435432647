package client

import (
	"errors"
	"net"
	"testing"

	"gosrb/internal/auth"
	"gosrb/internal/mcat"
	"gosrb/internal/types"
	"gosrb/internal/wire"
)

// fakeServer speaks just enough of the protocol to test client-side
// behaviour the real server never exhibits (redirect loops, protocol
// violations).
type fakeServer struct {
	ln     net.Listener
	handle func(c *wire.Conn, req *wire.Request) error
}

func startFake(t *testing.T, handle func(c *wire.Conn, req *wire.Request) error) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fs := &fakeServer{ln: ln, handle: handle}
	go fs.serve()
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String()
}

func (fs *fakeServer) serve() {
	for {
		nc, err := fs.ln.Accept()
		if err != nil {
			return
		}
		go func() {
			defer nc.Close()
			c := wire.NewConn(nc)
			nonce, _ := auth.NewChallenge()
			c.WriteJSON(wire.MsgChallenge, wire.Challenge{Server: "fake", Nonce: nonce})
			var a wire.Auth
			if c.ReadJSON(wire.MsgAuth, &a) != nil {
				return
			}
			// Accept anyone.
			c.WriteJSON(wire.MsgAuthOK, wire.AuthOK{Server: "fake"})
			for {
				var req wire.Request
				if _, err := c.ReadRequest(&req); err != nil {
					return
				}
				if fs.handle(c, &req) != nil {
					return
				}
			}
		}()
	}
}

// answer writes resp as the response to req, echoing its ID.
func answer(c *wire.Conn, req *wire.Request, resp wire.Response) error {
	resp.ID = req.ID
	return c.WriteResponse(&resp)
}

func TestRedirectLoopIsBounded(t *testing.T) {
	// A server that always redirects to itself must not loop forever.
	var addr string
	addr = startFake(t, func(c *wire.Conn, req *wire.Request) error {
		return c.WriteRedirect(&wire.Redirect{ID: req.ID, Server: "fake", Addr: addr})
	})
	cl, err := Dial(addr, "u", "pw")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Get("/loop"); !errors.Is(err, types.ErrInvalid) {
		t.Errorf("redirect loop error = %v", err)
	}
}

func TestUnexpectedFrameIsAnError(t *testing.T) {
	addr := startFake(t, func(c *wire.Conn, req *wire.Request) error {
		// Answer a request with a bare data frame: a protocol violation.
		return c.WriteMsg(wire.MsgData, []byte("garbage"))
	})
	cl, err := Dial(addr, "u", "pw")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.List("/"); !errors.Is(err, types.ErrInvalid) {
		t.Errorf("protocol violation error = %v", err)
	}
}

func TestErrorBodiesDecode(t *testing.T) {
	addr := startFake(t, func(c *wire.Conn, req *wire.Request) error {
		return answer(c, req, wire.ErrResponse(types.E("op", "/x", types.ErrLocked)))
	})
	cl, err := Dial(addr, "u", "pw")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Mkdir("/x"); !errors.Is(err, types.ErrLocked) {
		t.Errorf("sentinel across fake wire = %v", err)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", "u", "pw"); err == nil {
		t.Error("dialing a dead port should fail")
	}
}

// okResp builds a success response carrying v, as a server encodes one.
func okResp(v any, dataFollows bool) wire.Response {
	body, err := wire.AppendBody(nil, &v)
	if err != nil {
		panic(err)
	}
	return wire.Response{OK: true, Body: body, DataFollows: dataFollows}
}

func TestRequestCarriesArgs(t *testing.T) {
	got := make(chan wire.Request, 1)
	addr := startFake(t, func(c *wire.Conn, req *wire.Request) error {
		got <- *req
		resp := okResp(struct{}{}, false)
		return answer(c, req, resp)
	})
	cl, err := Dial(addr, "u", "pw")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.Mkdir("/made"); err != nil {
		t.Fatal(err)
	}
	req := <-got
	if req.Op != wire.OpMkdir {
		t.Errorf("op = %q", req.Op)
	}
	a, err := wire.DecodeArgs[wire.PathArgs](req.Args)
	if err != nil || a.Path != "/made" {
		t.Errorf("args = %s, %v", req.Args, err)
	}
}

// echoServer answers every op with a success response shaped for the
// method, exercising each client wrapper end to end.
func TestAllMethodsAgainstFake(t *testing.T) {
	addr := startFake(t, func(c *wire.Conn, req *wire.Request) error {
		switch req.Op {
		case wire.OpIngest, wire.OpReingest, wire.OpCheckin, wire.OpIngestReplica:
			// Ops with a data stream: drain it first.
			var sink discard
			if _, err := c.RecvData(&sink); err != nil {
				return err
			}
		}
		switch req.Op {
		case wire.OpGet, wire.OpReadRange, wire.OpExecSQL, wire.OpInvoke, wire.OpShadowOpen:
			resp := okResp(wire.SizeReply{Size: 4}, true)
			if err := answer(c, req, resp); err != nil {
				return err
			}
			if err := c.WriteMsg(wire.MsgData, []byte("data")); err != nil {
				return err
			}
			return c.WriteMsg(wire.MsgDataEnd, nil)
		case wire.OpList:
			resp := okResp([]types.Stat{{Path: "/x"}}, false)
			return answer(c, req, resp)
		case wire.OpStat:
			resp := okResp(types.Stat{Path: "/x", Size: 4}, false)
			return answer(c, req, resp)
		case wire.OpGetObject, wire.OpIngest, wire.OpRegisterURL, wire.OpRegisterSQL, wire.OpMkContainer:
			resp := okResp(types.DataObject{Name: "x", Collection: "/"}, false)
			return answer(c, req, resp)
		case wire.OpReplicate:
			resp := okResp(types.Replica{Number: 1, Resource: "r"}, false)
			return answer(c, req, resp)
		case wire.OpGetMeta:
			resp := okResp([]types.AVU{{Name: "a", Value: "v"}}, false)
			return answer(c, req, resp)
		case wire.OpAnnotations:
			resp := okResp([]types.Annotation{{Author: "u", Text: "t"}}, false)
			return answer(c, req, resp)
		case wire.OpQuery:
			resp := okResp(wire.QueryReply{Hits: []mcat.Hit{{Path: "/x"}}}, false)
			return answer(c, req, resp)
		case wire.OpQueryAttrs:
			resp := okResp([]string{"a"}, false)
			return answer(c, req, resp)
		case wire.OpSyncContainer, wire.OpExtract:
			resp := okResp(wire.CountReply{N: 2}, false)
			return answer(c, req, resp)
		case wire.OpIssueTicket:
			resp := okResp(wire.TicketReply{ID: "tk"}, false)
			return answer(c, req, resp)
		case wire.OpAudit:
			resp := okResp([]types.AuditRecord{{Op: "get"}}, false)
			return answer(c, req, resp)
		case wire.OpResources:
			resp := okResp([]types.Resource{{Name: "r"}}, false)
			return answer(c, req, resp)
		case wire.OpServerStats:
			resp := okResp(wire.StatsReply{Server: "fake"}, false)
			return answer(c, req, resp)
		case wire.OpShadowList:
			resp := okResp([]struct{ Path string }{{"/p"}}, false)
			return answer(c, req, resp)
		default:
			resp := okResp(struct{}{}, false)
			return answer(c, req, resp)
		}
	})
	cl, err := Dial(addr, "u", "pw")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	check := func(name string, err error) {
		t.Helper()
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	check("Mkdir", cl.Mkdir("/c"))
	check("RmColl", cl.RmColl("/c"))
	_, err = cl.List("/")
	check("List", err)
	st, err := cl.Stat("/x")
	check("Stat", err)
	if st.Size != 4 {
		t.Errorf("Stat size = %d", st.Size)
	}
	_, err = cl.GetObject("/x")
	check("GetObject", err)
	_, err = cl.Put("/x", []byte("d"), PutOpts{Resource: "r"})
	check("Put", err)
	check("Reput", cl.Reput("/x", []byte("d")))
	data, err := cl.Get("/x")
	check("Get", err)
	if string(data) != "data" {
		t.Errorf("Get = %q", data)
	}
	_, err = cl.GetRange("/x", 0, 4)
	check("GetRange", err)
	_, err = cl.Replicate("/x", "r")
	check("Replicate", err)
	check("Delete", cl.Delete("/x"))
	check("DeleteReplica", cl.DeleteReplica("/x", 0))
	check("Move", cl.Move("/a", "/b"))
	check("Copy", cl.Copy("/a", "/b", ""))
	check("Link", cl.Link("/a", "/b"))
	check("AddMeta", cl.AddMeta("/x", types.MetaUser, types.AVU{Name: "a"}))
	_, err = cl.GetMeta("/x", types.MetaUser)
	check("GetMeta", err)
	check("Annotate", cl.Annotate("/x", types.Annotation{Text: "t"}))
	_, err = cl.Annotations("/x")
	check("Annotations", err)
	_, err = cl.Query(mcat.Query{Scope: "/"})
	check("Query", err)
	_, err = cl.QueryAttrNames("/")
	check("QueryAttrNames", err)
	check("Chmod", cl.Chmod("/x", "u", "read"))
	check("Lock", cl.Lock("/x", "shared", 0))
	check("Unlock", cl.Unlock("/x"))
	check("Pin", cl.Pin("/x", "r", 0))
	check("Unpin", cl.Unpin("/x", "r"))
	check("Checkout", cl.Checkout("/x"))
	check("Checkin", cl.Checkin("/x", []byte("v2"), "c"))
	_, err = cl.RegisterURL("/u", "mem://x")
	check("RegisterURL", err)
	_, err = cl.RegisterSQL("/q", types.SQLSpec{Resource: "db", Query: "SELECT 1"})
	check("RegisterSQL", err)
	_, err = cl.ExecSQL("/q", "")
	check("ExecSQL", err)
	_, err = cl.Invoke("/m", []string{"-a"})
	check("Invoke", err)
	_, err = cl.MkContainer("/cc", "r")
	check("MkContainer", err)
	_, err = cl.SyncContainer("/cc")
	check("SyncContainer", err)
	_, err = cl.Extract("/x", "m", "")
	check("Extract", err)
	_, err = cl.IssueTicket("/x", "read", 1, 0)
	check("IssueTicket", err)
	_, err = cl.GetWithTicket("/x", "tk")
	check("GetWithTicket", err)
	_, err = cl.Audit("", "", "", 0)
	check("Audit", err)
	_, err = cl.Resources()
	check("Resources", err)
	err = cl.Call(wire.OpServerStats, struct{}{}, nil)
	check("ServerStats", err)
	_, err = cl.ShadowList("/s", ".")
	check("ShadowList", err)
	_, err = cl.ShadowOpen("/s", "f")
	check("ShadowOpen", err)
}

// discard swallows a data stream.
type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

package server

import (
	"bytes"
	"errors"
	"fmt"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"gosrb/internal/acl"
	"gosrb/internal/auth"
	"gosrb/internal/client"
	"gosrb/internal/core"
	"gosrb/internal/mcat"
	"gosrb/internal/mcat/shard"
	"gosrb/internal/obs"
	stg "gosrb/internal/storage"
	"gosrb/internal/storage/dbfs"
	"gosrb/internal/storage/memfs"
	"gosrb/internal/types"
	"gosrb/internal/wire"
)

// zone is a two-server federation over one shared MCAT, as SRB 1.x
// deploys: srb1 owns disk1, srb2 owns disk2.
type zone struct {
	cat          *mcat.Catalog
	b1, b2       *core.Broker
	s1, s2       *Server
	addr1, addr2 string
	authn        *auth.Authenticator
	t            *testing.T
}

const zoneSecret = "npaci-zone-secret"

// serveAdmin serves s's admin endpoint for the length of the test, as
// the daemon runtime serves it, and returns its address.
func serveAdmin(t *testing.T, s *Server) string {
	t.Helper()
	web := httptest.NewServer(NewAdminHandler(s.AdminEnv("admin")))
	t.Cleanup(web.Close)
	return web.Listener.Addr().String()
}

func newZone(t *testing.T, mode FederationMode) *zone {
	t.Helper()
	return newZoneOver(t, mode, func(c shard.Catalog) shard.Catalog { return c })
}

// newZoneOver is newZone with each server's broker over view(cat), its
// own view of the one shared catalog.
func newZoneOver(t *testing.T, mode FederationMode, view func(shard.Catalog) shard.Catalog) *zone {
	t.Helper()
	cat := mcat.New("admin", "sdsc")
	cat.AddUser(types.User{Name: "alice", Domain: "sdsc"})
	cat.MkColl("/home", "admin")
	cat.SetACL("/home", "alice", acl.Write)

	b1 := core.New(view(cat), "srb1")
	b2 := core.New(view(cat), "srb2")
	if err := b1.AddPhysicalResource("admin", "disk1", types.ClassFileSystem, "memfs", memfs.New()); err != nil {
		t.Fatal(err)
	}
	if err := b2.AddPhysicalResource("admin", "disk2", types.ClassFileSystem, "memfs", memfs.New()); err != nil {
		t.Fatal(err)
	}

	// One authenticator for the zone: single sign-on.
	authn := auth.New()
	authn.Register("alice", "alicepw")
	authn.Register("admin", "adminpw")

	s1 := New(b1, authn, mode)
	s2 := New(b2, authn, mode)
	addr1, err := s1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr2, err := s2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s1.AddPeer("srb2", addr2, zoneSecret)
	s2.AddPeer("srb1", addr1, zoneSecret)
	t.Cleanup(func() { s1.Close(); s2.Close() })
	return &zone{cat: cat, b1: b1, b2: b2, s1: s1, s2: s2, addr1: addr1, addr2: addr2, authn: authn, t: t}
}

func (z *zone) client(addr, user, pw string) *client.Client {
	z.t.Helper()
	cl, err := client.Dial(addr, user, pw)
	if err != nil {
		z.t.Fatal(err)
	}
	z.t.Cleanup(func() { cl.Close() })
	return cl
}

func TestLoginAndBasicOps(t *testing.T) {
	z := newZone(t, Proxy)
	cl := z.client(z.addr1, "alice", "alicepw")
	if cl.Server() != "srb1" {
		t.Errorf("server = %q", cl.Server())
	}
	if err := cl.Mkdir("/home/proj"); err != nil {
		t.Fatal(err)
	}
	o, err := cl.Put("/home/proj/f.txt", []byte("over the wire"), client.PutOpts{
		Resource: "disk1",
		Meta:     []types.AVU{{Name: "k", Value: "v"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.Size != 13 || o.Owner != "alice" {
		t.Errorf("put result = %+v", o)
	}
	data, err := cl.Get("/home/proj/f.txt")
	if err != nil || string(data) != "over the wire" {
		t.Errorf("get = %q, %v", data, err)
	}
	stats, err := cl.List("/home/proj")
	if err != nil || len(stats) != 1 {
		t.Errorf("list = %+v, %v", stats, err)
	}
	avus, err := cl.GetMeta("/home/proj/f.txt", types.MetaUser)
	if err != nil || len(avus) != 1 || avus[0].Value != "v" {
		t.Errorf("meta = %+v, %v", avus, err)
	}
	hits, err := cl.Query(mcat.Query{Scope: "/", Conds: []mcat.Condition{{Attr: "k", Op: "=", Value: "v"}}})
	if err != nil || len(hits) != 1 {
		t.Errorf("query = %+v, %v", hits, err)
	}
	names, err := cl.QueryAttrNames("/home")
	if err != nil || len(names) != 1 {
		t.Errorf("attr names = %v, %v", names, err)
	}
	// Error mapping across the wire.
	if _, err := cl.Get("/home/missing"); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("missing get error = %v", err)
	}
	var st wire.StatsReply
	err = cl.Call(wire.OpServerStats, struct{}{}, &st)
	if err != nil || st.Server != "srb1" || st.Objects != 1 {
		t.Errorf("stats = %+v, %v", st, err)
	}
}

func TestBadPasswordRejected(t *testing.T) {
	z := newZone(t, Proxy)
	if _, err := client.Dial(z.addr1, "alice", "wrong"); !errors.Is(err, types.ErrAuth) {
		t.Errorf("bad login = %v", err)
	}
	if _, err := client.Dial(z.addr1, "ghost", "x"); !errors.Is(err, types.ErrAuth) {
		t.Errorf("unknown user = %v", err)
	}
}

func TestFederationProxy(t *testing.T) {
	z := newZone(t, Proxy)
	cl := z.client(z.addr1, "alice", "alicepw")
	// Ingest onto disk2 (owned by srb2) while connected to srb1: the
	// request proxies to the owning server.
	o, err := cl.Put("/home/remote.dat", []byte("stored at caltech"), client.PutOpts{Resource: "disk2"})
	if err != nil {
		t.Fatal(err)
	}
	if o.Replicas[0].Resource != "disk2" {
		t.Errorf("replica = %+v", o.Replicas)
	}
	// The bytes really live on srb2's driver.
	d2, err := z.b2.Driver("disk2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d2.Stat(o.Replicas[0].PhysicalPath); err != nil {
		t.Errorf("bytes not on disk2: %v", err)
	}
	// Reading back through srb1 proxies from srb2 (location
	// transparency, §3.1): the client stays connected to srb1.
	data, err := cl.Get("/home/remote.dat")
	if err != nil || string(data) != "stored at caltech" {
		t.Errorf("proxied get = %q, %v", data, err)
	}
	if cl.Server() != "srb1" {
		t.Errorf("proxy mode must not move the client: %q", cl.Server())
	}
}

// TestHandBuiltPeerRequests drives every request a server builds for a
// peer itself, rather than relaying its client's, across a two-server
// zone: a bulk put's remote item, a multi-get's remote item, a
// replication from a remote source and one to a remote target, and the
// trace and grid-stat fan-outs. Each one's arguments must reach srb2 in
// the encoding srb2 decodes, and its reply come back the same way.
func TestHandBuiltPeerRequests(t *testing.T) {
	z := newZone(t, Proxy)
	cl := z.client(z.addr1, "alice", "alicepw")
	res, err := cl.BulkPut([]client.BulkPut{{Path: "/home/remote", Data: []byte("on srb2"), Opts: client.PutOpts{Resource: "disk2"}}})
	if err != nil || len(res) != 1 || !res[0].OK {
		t.Fatalf("bulkput to a remote resource = %+v, %v", res, err)
	}
	items, err := cl.MultiGet([]string{"/home/remote"})
	if err != nil || len(items) != 1 || items[0].Err != nil || string(items[0].Data) != "on srb2" {
		t.Fatalf("multiget of a remote item = %+v, %v", items, err)
	}
	multiGetTrace := cl.LastTrace()
	if r, err := cl.Replicate("/home/remote", "disk1"); err != nil || r.Resource != "disk1" {
		t.Fatalf("replicate from a remote source = %+v, %v", r, err)
	}
	if _, err := cl.Put("/home/local", []byte("on srb1"), client.PutOpts{Resource: "disk1"}); err != nil {
		t.Fatal(err)
	}
	r, err := cl.Replicate("/home/local", "disk2")
	if err != nil || r.Resource != "disk2" {
		t.Fatalf("replicate to a remote target = %+v, %v", r, err)
	}
	d2, err := z.b2.Driver("disk2")
	if err != nil {
		t.Fatal(err)
	}
	if data, err := stg.ReadAll(d2, r.PhysicalPath); err != nil || string(data) != "on srb1" {
		t.Fatalf("replica on disk2 = %q, %v", data, err)
	}
	var tr wire.TraceReply
	if err := cl.Call(wire.OpTrace, wire.TraceArgs{ID: multiGetTrace}, &tr); err != nil {
		t.Fatal(err)
	}
	servers := map[string]bool{}
	for _, sp := range tr.Spans {
		servers[sp.Server] = true
	}
	if !servers["srb1"] || !servers["srb2"] {
		t.Errorf("trace of the remote multiget spans servers %v, want srb1 and srb2", servers)
	}
	var grid wire.GridStatReply
	if err := cl.Call(wire.OpGridStat, wire.GridStatArgs{WindowSeconds: 60}, &grid); err != nil {
		t.Fatal(err)
	}
	for _, m := range grid.Members {
		if m.Unreachable || m.Err != "" {
			t.Errorf("grid member %s = unreachable %v, %q", m.Server, m.Unreachable, m.Err)
		}
	}
	if len(grid.Members) != 2 {
		t.Errorf("grid members = %d, want 2", len(grid.Members))
	}
}

func TestFederationRedirect(t *testing.T) {
	z := newZone(t, Redirect)
	// Seed via a direct connection to srb2.
	cl2 := z.client(z.addr2, "alice", "alicepw")
	if _, err := cl2.Put("/home/r.dat", []byte("redirect me"), client.PutOpts{Resource: "disk2"}); err != nil {
		t.Fatal(err)
	}
	// Connect to srb1 and fetch: the server issues a redirect, the
	// client transparently reconnects to srb2 and retries.
	cl1 := z.client(z.addr1, "alice", "alicepw")
	data, err := cl1.Get("/home/r.dat")
	if err != nil || string(data) != "redirect me" {
		t.Fatalf("redirected get = %q, %v", data, err)
	}
	if cl1.Server() != "srb2" {
		t.Errorf("client should now be on srb2: %q", cl1.Server())
	}
}

func TestFailoverAcrossServers(t *testing.T) {
	z := newZone(t, Proxy)
	cl := z.client(z.addr1, "alice", "alicepw")
	if _, err := cl.Put("/home/ha.dat", []byte("replicated"), client.PutOpts{Resource: "disk1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Replicate("/home/ha.dat", "disk2"); err != nil {
		t.Fatal(err)
	}
	// disk1 (local to srb1) goes down; the read fails over to the
	// replica on srb2 via federation.
	z.cat.SetResourceOnline("disk1", false)
	data, err := cl.Get("/home/ha.dat")
	if err != nil || string(data) != "replicated" {
		t.Errorf("failover get = %q, %v", data, err)
	}
}

func TestParallelGet(t *testing.T) {
	z := newZone(t, Proxy)
	cl := z.client(z.addr1, "alice", "alicepw")
	payload := make([]byte, 1<<20)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	if _, err := cl.Put("/home/big.bin", payload, client.PutOpts{Resource: "disk1"}); err != nil {
		t.Fatal(err)
	}
	for _, streams := range []int{1, 2, 4, 8} {
		got, err := cl.ParallelGet("/home/big.bin", streams)
		if err != nil {
			t.Fatalf("streams=%d: %v", streams, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("streams=%d: payload corrupted", streams)
		}
	}
	// Range reads line up with offsets.
	part, err := cl.GetRange("/home/big.bin", 100, 50)
	if err != nil || !bytes.Equal(part, payload[100:150]) {
		t.Errorf("range read mismatch: %v", err)
	}
}

// TestParallelGetRecordsItsStreams: ParallelGet's streams are calls of
// the client itself, on conns leased from its pool, so each range read
// lands in the client's own phase.client.readrange.* ops.
func TestParallelGetRecordsItsStreams(t *testing.T) {
	z := newZone(t, Proxy)
	cl := z.client(z.addr1, "alice", "alicepw")
	payload := make([]byte, 64<<10)
	if _, err := cl.Put("/home/streams.bin", payload, client.PutOpts{Resource: "disk1"}); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cl.SetMetrics(reg)
	got, err := cl.ParallelGet("/home/streams.bin", 4)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("ParallelGet = %d bytes, %v", len(got), err)
	}
	for _, phase := range []string{obs.PhasePoolCheckout, obs.PhaseMuxInflight} {
		name := obs.PhasePrefix + "client." + wire.OpReadRange + "." + phase
		if n := reg.Op(name).Snapshot().Count; n != 4 {
			t.Errorf("%s counted %d range calls, want 4", name, n)
		}
	}
}

func TestWireLocksAndAnnotations(t *testing.T) {
	z := newZone(t, Proxy)
	z.authn.Register("bob", "bobpw")
	z.cat.AddUser(types.User{Name: "bob", Domain: "x"})
	alice := z.client(z.addr1, "alice", "alicepw")
	bob := z.client(z.addr1, "bob", "bobpw")

	alice.Put("/home/doc", []byte("v1"), client.PutOpts{Resource: "disk1"})
	alice.Chmod("/home/doc", "bob", "write")
	if err := alice.Lock("/home/doc", "shared", time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := bob.Reput("/home/doc", []byte("v2")); !errors.Is(err, types.ErrLocked) {
		t.Errorf("locked reput = %v", err)
	}
	if err := alice.Unlock("/home/doc"); err != nil {
		t.Fatal(err)
	}
	if err := bob.Reput("/home/doc", []byte("v2")); err != nil {
		t.Errorf("unlocked reput = %v", err)
	}
	// Annotations over the wire.
	if err := bob.Annotate("/home/doc", types.Annotation{Text: "looks good", Kind: "comment"}); err != nil {
		t.Fatal(err)
	}
	anns, err := alice.Annotations("/home/doc")
	if err != nil || len(anns) != 1 || anns[0].Author != "bob" {
		t.Errorf("annotations = %+v, %v", anns, err)
	}
	// Checkout/checkin over the wire.
	if err := alice.Checkout("/home/doc"); err != nil {
		t.Fatal(err)
	}
	if err := alice.Checkin("/home/doc", []byte("v3"), "note"); err != nil {
		t.Fatal(err)
	}
	data, _ := alice.Get("/home/doc")
	if string(data) != "v3" {
		t.Errorf("after checkin = %q", data)
	}
}

func TestWireSQLAndContainers(t *testing.T) {
	z := newZone(t, Proxy)
	db := dbfs.New()
	if err := z.b1.AddPhysicalResource("admin", "db1", types.ClassDatabase, "dbfs", db); err != nil {
		t.Fatal(err)
	}
	db.Database().Exec("CREATE TABLE t (a)")
	db.Database().Exec("INSERT INTO t VALUES ('wired')")

	cl := z.client(z.addr1, "alice", "alicepw")
	if _, err := cl.RegisterSQL("/home/q", types.SQLSpec{Resource: "db1", Query: "SELECT a FROM t", Template: "XMLREL"}); err != nil {
		t.Fatal(err)
	}
	out, err := cl.ExecSQL("/home/q", "")
	if err != nil || !bytes.Contains(out, []byte("wired")) {
		t.Errorf("execsql = %q, %v", out, err)
	}
	// Containers over the wire.
	if _, err := cl.MkContainer("/home/cc", "disk1"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Put("/home/member", []byte("inside"), client.PutOpts{Container: "/home/cc"}); err != nil {
		t.Fatal(err)
	}
	data, err := cl.Get("/home/member")
	if err != nil || string(data) != "inside" {
		t.Errorf("container member = %q, %v", data, err)
	}
	// URL objects over the wire.
	z.b1.Fetcher().RegisterMemBytes("mem://x", []byte("url data"))
	if _, err := cl.RegisterURL("/home/u", "mem://x"); err != nil {
		t.Fatal(err)
	}
	data, err = cl.Get("/home/u")
	if err != nil || string(data) != "url data" {
		t.Errorf("url get = %q, %v", data, err)
	}
}

func TestMoveCopyDeleteOverWire(t *testing.T) {
	z := newZone(t, Proxy)
	cl := z.client(z.addr1, "alice", "alicepw")
	cl.Mkdir("/home/a")
	cl.Mkdir("/home/b")
	cl.Put("/home/a/f", []byte("x"), client.PutOpts{Resource: "disk1"})
	if err := cl.Move("/home/a/f", "/home/b/g"); err != nil {
		t.Fatal(err)
	}
	if err := cl.Copy("/home/b/g", "/home/b/h", ""); err != nil {
		t.Fatal(err)
	}
	if err := cl.Link("/home/b/g", "/home/a/lnk"); err != nil {
		t.Fatal(err)
	}
	data, err := cl.Get("/home/a/lnk")
	if err != nil || string(data) != "x" {
		t.Errorf("link get = %q, %v", data, err)
	}
	if err := cl.Delete("/home/b/h"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get("/home/b/h"); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("deleted get = %v", err)
	}
	// Extraction over the wire.
	cl.Put("/home/hdr.fits", []byte("OBJECT  = 'M31'\nEND\n"), client.PutOpts{Resource: "disk1", DataType: "fits image"})
	n, err := cl.Extract("/home/hdr.fits", "fits-cards", "")
	if err != nil || n != 1 {
		t.Errorf("extract = %d, %v", n, err)
	}
}

func TestTicketDelegatedAccess(t *testing.T) {
	z := newZone(t, Proxy)
	z.authn.Register("bob", "bobpw")
	z.cat.AddUser(types.User{Name: "bob", Domain: "x"})
	alice := z.client(z.addr1, "alice", "alicepw")
	bob := z.client(z.addr1, "bob", "bobpw")

	alice.Put("/home/secret.txt", []byte("for ticket holders"), client.PutOpts{Resource: "disk1"})
	// Without a grant or ticket, bob is denied.
	if _, err := bob.Get("/home/secret.txt"); !errors.Is(err, types.ErrPermission) {
		t.Fatalf("ungranted get = %v", err)
	}
	// Alice issues a 2-use read ticket; bob redeems it.
	tk, err := alice.IssueTicket("/home/secret.txt", "read", 2, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	data, err := bob.GetWithTicket("/home/secret.txt", tk)
	if err != nil || string(data) != "for ticket holders" {
		t.Fatalf("ticket get = %q, %v", data, err)
	}
	if _, err := bob.GetWithTicket("/home/secret.txt", tk); err != nil {
		t.Fatalf("second use: %v", err)
	}
	// The ticket is exhausted; a third use fails.
	if _, err := bob.GetWithTicket("/home/secret.txt", tk); !errors.Is(err, types.ErrAuth) {
		t.Errorf("exhausted ticket = %v", err)
	}
	// Tickets are path-scoped.
	alice.Put("/home/other.txt", []byte("x"), client.PutOpts{Resource: "disk1"})
	tk2, _ := alice.IssueTicket("/home/secret.txt", "read", -1, time.Hour)
	if _, err := bob.GetWithTicket("/home/other.txt", tk2); !errors.Is(err, types.ErrPermission) {
		t.Errorf("out-of-scope ticket = %v", err)
	}
	// Only owners may issue.
	if _, err := bob.IssueTicket("/home/secret.txt", "read", 1, time.Hour); !errors.Is(err, types.ErrPermission) {
		t.Errorf("non-owner issue = %v", err)
	}
	// Collection tickets cover the subtree.
	alice.Mkdir("/home/pub")
	alice.Put("/home/pub/a.txt", []byte("A"), client.PutOpts{Resource: "disk1"})
	tk3, err := alice.IssueTicket("/home/pub", "read", -1, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	data, err = bob.GetWithTicket("/home/pub/a.txt", tk3)
	if err != nil || string(data) != "A" {
		t.Errorf("subtree ticket = %q, %v", data, err)
	}
}

func TestShadowAndAddUserOverWire(t *testing.T) {
	z := newZone(t, Proxy)
	// Seed a physical cone on disk1 and register it as a shadow dir.
	d1, _ := z.b1.Driver("disk1")
	stg.WriteAll(d1, "/cone/a.txt", []byte("A"))
	stg.WriteAll(d1, "/cone/sub/b.txt", []byte("B"))
	if _, err := z.b1.RegisterDirectory("alice", "/home/shadow", "disk1", "/cone"); err != nil {
		t.Fatal(err)
	}
	alice := z.client(z.addr1, "alice", "alicepw")
	infos, err := alice.ShadowList("/home/shadow", ".")
	if err != nil || len(infos) != 2 {
		t.Fatalf("ShadowList = %+v, %v", infos, err)
	}
	data, err := alice.ShadowOpen("/home/shadow", "sub/b.txt")
	if err != nil || string(data) != "B" {
		t.Errorf("ShadowOpen = %q, %v", data, err)
	}
	// Remote user administration: admin only.
	if err := alice.AddUser("eve", "x", "pw", false); !errors.Is(err, types.ErrPermission) {
		t.Errorf("non-admin adduser = %v", err)
	}
	admin := z.client(z.addr1, "admin", "adminpw")
	if err := admin.AddUser("carol", "caltech", "carolpw", false); err != nil {
		t.Fatal(err)
	}
	// The new user can authenticate immediately (single sign-on zone)
	// and, once granted, read.
	if err := admin.Chmod("/home", "carol", "read"); err != nil {
		t.Fatal(err)
	}
	carol := z.client(z.addr2, "carol", "carolpw")
	if _, err := carol.List("/home"); err != nil {
		t.Errorf("new user list: %v", err)
	}
}

func TestConcurrentClientsStress(t *testing.T) {
	z := newZone(t, Proxy)
	admin := z.client(z.addr1, "admin", "adminpw")
	admin.Chmod("/home", "alice", "write")
	const workers = 8
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			cl, err := client.Dial(z.addr1, "alice", "alicepw")
			if err != nil {
				done <- err
				return
			}
			defer cl.Close()
			for i := 0; i < 25; i++ {
				p := fmt.Sprintf("/home/w%d-f%d", w, i)
				if _, err := cl.Put(p, []byte(p), client.PutOpts{
					Resource: "disk1",
					Meta:     []types.AVU{{Name: "w", Value: fmt.Sprint(w)}},
				}); err != nil {
					done <- err
					return
				}
				data, err := cl.Get(p)
				if err != nil || string(data) != p {
					done <- fmt.Errorf("get %s = %q, %v", p, data, err)
					return
				}
				if _, err := cl.Query(mcat.Query{Scope: "/home",
					Conds: []mcat.Condition{{Attr: "w", Op: "=", Value: fmt.Sprint(w)}}}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	var st wire.StatsReply
	err := admin.Call(wire.OpServerStats, struct{}{}, &st)
	if err != nil || st.Objects != workers*25 {
		t.Errorf("stats after stress = %+v, %v", st, err)
	}
}

func TestFederatedSQLExecution(t *testing.T) {
	z := newZone(t, Proxy)
	// The database resource lives on srb2.
	db := dbfs.New()
	if err := z.b2.AddPhysicalResource("admin", "db2", types.ClassDatabase, "dbfs", db); err != nil {
		t.Fatal(err)
	}
	db.Database().Exec("CREATE TABLE t (a)")
	db.Database().Exec("INSERT INTO t VALUES ('remote row')")
	cl := z.client(z.addr1, "alice", "alicepw")
	if _, err := cl.RegisterSQL("/home/q", types.SQLSpec{
		Resource: "db2", Query: "SELECT a FROM t", Template: "XMLREL",
	}); err != nil {
		t.Fatal(err)
	}
	// Executing through srb1 federates to the database's owner.
	out, err := cl.ExecSQL("/home/q", "")
	if err != nil || !bytes.Contains(out, []byte("remote row")) {
		t.Errorf("federated execsql = %q, %v", out, err)
	}
}

func TestParallelGetThroughProxy(t *testing.T) {
	z := newZone(t, Proxy)
	payload := make([]byte, 512<<10)
	for i := range payload {
		payload[i] = byte(i * 13)
	}
	// Data on srb2; client connected to srb1 throughout.
	cl2 := z.client(z.addr2, "alice", "alicepw")
	if _, err := cl2.Put("/home/big", payload, client.PutOpts{Resource: "disk2"}); err != nil {
		t.Fatal(err)
	}
	cl1 := z.client(z.addr1, "alice", "alicepw")
	got, err := cl1.ParallelGet("/home/big", 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("proxied parallel get corrupted the payload")
	}
	if cl1.Server() != "srb1" {
		t.Errorf("client moved to %q in proxy mode", cl1.Server())
	}
	// Redirect mode: the streams chase the owner instead.
	zr := newZone(t, Redirect)
	r2 := zr.client(zr.addr2, "alice", "alicepw")
	if _, err := r2.Put("/home/big", payload, client.PutOpts{Resource: "disk2"}); err != nil {
		t.Fatal(err)
	}
	r1 := zr.client(zr.addr1, "alice", "alicepw")
	got, err = r1.ParallelGet("/home/big", 4)
	if err != nil || !bytes.Equal(got, payload) {
		t.Errorf("redirected parallel get: %v", err)
	}
}

func TestResourcesOverWire(t *testing.T) {
	z := newZone(t, Proxy)
	cl := z.client(z.addr1, "alice", "alicepw")
	rs, err := cl.Resources()
	if err != nil || len(rs) != 2 {
		t.Fatalf("resources = %+v, %v", rs, err)
	}
	names := map[string]string{}
	for _, r := range rs {
		names[r.Name] = r.Server
	}
	if names["disk1"] != "srb1" || names["disk2"] != "srb2" {
		t.Errorf("resource ownership = %v", names)
	}
}

// lookupCounter is a server's view of the zone's catalog that counts the
// object rows it reads.
type lookupCounter struct {
	shard.Catalog
	n atomic.Int64
}

func (c *lookupCounter) GetObject(path string) (types.DataObject, error) {
	c.n.Add(1)
	return c.Catalog.GetObject(path)
}

// TestReadResolvesOnce: a read reads its object's row once on each server
// it touches. The row decides where the object is served and is then
// checked and opened as it is, so no layer below the server — the
// broker's checks, the replica selection — reads it again.
func TestReadResolvesOnce(t *testing.T) {
	var views []*lookupCounter
	z := newZoneOver(t, Proxy, func(c shard.Catalog) shard.Catalog {
		v := &lookupCounter{Catalog: c}
		views = append(views, v)
		return v
	})
	srb1, srb2 := views[0], views[1]
	paths := make([]string, 16)
	for i := range paths {
		b, res := z.b1, "disk1"
		if i%2 == 1 {
			b, res = z.b2, "disk2"
		}
		paths[i] = fmt.Sprintf("/home/once%02d", i)
		if _, err := b.Ingest("alice", core.IngestOpts{Path: paths[i], Data: body(i), Resource: res}); err != nil {
			t.Fatal(err)
		}
	}
	cl := z.client(z.addr1, "alice", "alicepw")
	for _, c := range []struct {
		name         string
		read         func() error
		want1, want2 int64
	}{
		{"local get", func() error { _, err := cl.Get(paths[0]); return err }, 1, 0},
		{"proxied get", func() error { _, err := cl.Get(paths[1]); return err }, 1, 1},
		{"multiget of 8 local, 8 remote", func() error {
			res, err := cl.MultiGet(paths)
			for _, r := range res {
				if err == nil {
					err = r.Err
				}
			}
			return err
		}, 16, 8},
		{"readrange", func() error { _, err := cl.GetRange(paths[2], 3, 10); return err }, 1, 0},
	} {
		n1, n2 := srb1.n.Load(), srb2.n.Load()
		if err := c.read(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got1, got2 := srb1.n.Load()-n1, srb2.n.Load()-n2; got1 != c.want1 || got2 != c.want2 {
			t.Errorf("%s: %d lookups on srb1, %d on srb2; want %d and %d", c.name, got1, got2, c.want1, c.want2)
		}
	}
}

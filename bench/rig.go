package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"gosrb/internal/auth"
	"gosrb/internal/client"
	"gosrb/internal/core"
	"gosrb/internal/mcat/shard"
	"gosrb/internal/repair"
	"gosrb/internal/server"
	"gosrb/internal/simnet"
	"gosrb/internal/storage"
	"gosrb/internal/storage/memfs"
	"gosrb/internal/storage/posixfs"
	"gosrb/internal/types"
)

const (
	adminUser  = "admin"
	adminPw    = "adminpw"
	benchUser  = "alice"
	benchPw    = "alicepw"
	zoneSecret = "zonesecret"
	// peerRTT is the round trip charged on the srb1->srb2 peer link, on
	// the dialing side, as bench_wire_test.go does.
	peerRTT = 10 * time.Millisecond
)

// setupTimes splits set-up into the steps a later change may move work
// between.
type setupTimes struct {
	preload, snapshot, boot, warmup time.Duration
}

// rig is the real stack booted in this process: clients over TCP
// loopback to servers over brokers over one journaled catalog.
type rig struct {
	p       *plan
	dir     string
	store   *shard.Store
	router  *shard.Router
	cat     shard.Catalog // router, or the traced wrapper around it
	brokers []*core.Broker
	engines []*repair.Engine
	servers []*server.Server
	clients []*client.Client
	authn   *auth.Authenticator
	drivers map[string]storage.Driver // raw drivers by resource
	times   setupTimes
	// Journal and snapshot sizes at the end of set-up.
	journalBase   int64
	snapshotBytes int64
}

func (r *rig) openStore() error {
	st, err := shard.Open(shard.OpenOptions{
		Shards:      r.p.shards,
		CatalogPath: filepath.Join(r.dir, "mcat.json"),
		JournalPath: filepath.Join(r.dir, "mcat.journal"),
		Admin:       adminUser,
		Domain:      "bench",
	})
	if err != nil {
		return err
	}
	r.store, r.router = st, st.Router()
	return nil
}

// catalogFileBytes sums the files whose names start with prefix in the
// rig directory (a sharded store keeps one file per shard).
func (r *rig) catalogFileBytes(prefix string) int64 {
	entries, _ := os.ReadDir(r.dir)
	var total int64
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), prefix) && e.Name() != "mcat.json.shardmap" {
			if fi, err := e.Info(); err == nil {
				total += fi.Size()
			}
		}
	}
	return total
}

// mkBrokers builds one broker per server over cat and mounts the
// drivers, wiring each as cmd/srbd/main.go does minus the timer jobs.
func (r *rig) mkBrokers(cat shard.Catalog, tr *tracer, register bool) error {
	r.brokers, r.engines = nil, nil
	for s := 0; s < r.p.servers; s++ {
		b := core.New(cat, fmt.Sprintf("srb%d", s+1))
		if s == 0 {
			r.router.SetMetrics(b.Metrics())
		}
		r.brokers = append(r.brokers, b)
	}
	for _, rs := range r.p.resources {
		b := r.brokers[rs.server]
		d := r.drivers[rs.name]
		if tr != nil {
			d = tr.wrapDriver(d)
		}
		if !register {
			if err := b.Remount(rs.name, d); err != nil {
				return err
			}
			continue
		}
		class := types.ClassFileSystem
		if rs.driver == "memfs" {
			class = types.ClassCache
		}
		if err := b.AddPhysicalResource(adminUser, rs.name, class, rs.driver, d); err != nil {
			return err
		}
	}
	if register && r.p.logical != "" {
		if err := r.brokers[0].AddLogicalResource(adminUser, r.p.logical, r.p.members); err != nil {
			return err
		}
	}
	for _, b := range r.brokers {
		eng := repair.New(repair.Config{
			Workers: 2, Queue: cat, Exec: b.RunRepairTask,
			Metrics: b.Metrics(), Breakers: b.Breakers(), Server: b.ServerName(),
		})
		b.SetRepair(eng)
		eng.Start()
		r.engines = append(r.engines, eng)
	}
	return nil
}

func (r *rig) stopEngines() {
	for _, e := range r.engines {
		e.Stop()
	}
	r.engines = nil
}

// setup preloads through the brokers, snapshots, closes, boots again
// from snapshot plus journal as the daemon does, listens, dials and
// runs the warm-up pass. All of it is timed: work a later change moves
// into boot or load shows in setup_s.
func setup(p *plan, dir string, tr *tracer) (_ *rig, err error) {
	start := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	r := &rig{p: p, dir: dir, drivers: make(map[string]storage.Driver)}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	for _, rs := range p.resources {
		if rs.driver == "memfs" {
			r.drivers[rs.name] = memfs.New()
			continue
		}
		d, err := posixfs.New(filepath.Join(dir, "vault-"+rs.name))
		if err != nil {
			return nil, err
		}
		r.drivers[rs.name] = d
	}

	// Preload on a first boot of the catalog.
	if err := r.openStore(); err != nil {
		return nil, err
	}
	if err := r.router.AddUser(types.User{Name: benchUser, Domain: "bench"}); err != nil {
		return nil, err
	}
	if err := r.mkBrokers(r.router, nil, true); err != nil {
		return nil, err
	}
	for _, c := range p.topColls {
		if err := r.router.MkColl(c, benchUser); err != nil {
			return nil, err
		}
	}
	for _, c := range p.subColls {
		if err := r.brokers[0].Mkdir(benchUser, c); err != nil {
			return nil, err
		}
	}
	for i := range p.preload {
		o := &p.preload[i]
		b := r.brokers[o.server]
		if _, err := b.Ingest(benchUser, core.IngestOpts{Path: o.path, Data: p.payload(o.key, o.size), Resource: o.resource, Meta: o.meta}); err != nil {
			return nil, err
		}
		for _, avu := range o.typeMeta {
			if err := b.AddMeta(benchUser, o.path, types.MetaType, avu); err != nil {
				return nil, err
			}
		}
	}
	r.times.preload = time.Since(start)

	// Snapshot and shut down.
	t := time.Now()
	r.stopEngines()
	if err := r.store.Snapshot(); err != nil {
		return nil, err
	}
	if err := r.store.Close(); err != nil {
		return nil, err
	}
	r.snapshotBytes = r.catalogFileBytes("mcat.json")
	r.times.snapshot = time.Since(t)

	// Boot: snapshot load, journal replay, remount, listen, dial.
	t = time.Now()
	if err := r.openStore(); err != nil {
		return nil, err
	}
	r.cat = r.router
	if tr != nil {
		r.cat = tr.wrapCatalog(r.router)
	}
	if err := r.mkBrokers(r.cat, tr, false); err != nil {
		return nil, err
	}
	r.authn = auth.New()
	r.authn.Register(adminUser, adminPw)
	r.authn.Register(benchUser, benchPw)
	var addrs []string
	for _, b := range r.brokers {
		s := server.New(b, r.authn, server.Proxy)
		addr, err := s.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		r.servers = append(r.servers, s)
		addrs = append(addrs, addr)
	}
	if len(r.servers) == 2 {
		r.servers[0].AddPeer("srb2", addrs[1], zoneSecret)
		r.servers[1].AddPeer("srb1", addrs[0], zoneSecret)
		r.servers[0].SetPeerDialer(func(addr string) (net.Conn, error) {
			nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
			if err != nil {
				return nil, err
			}
			var c net.Conn = simnet.Delay(nc, peerRTT)
			if tr != nil {
				c = tr.wrapConn(c, &tr.peer, "peer")
			}
			return c, nil
		})
	}
	nClients := len(p.clients)
	if tr != nil {
		nClients = 1
	}
	for i := 0; i < nClients; i++ {
		var dial func(string) (net.Conn, error)
		if tr != nil {
			dial = func(addr string) (net.Conn, error) {
				nc, err := net.DialTimeout("tcp", addr, client.DialTimeout)
				if err != nil {
					return nil, err
				}
				return tr.wrapConn(nc, &tr.client, "wire"), nil
			}
		}
		cl, err := client.DialWith(addrs[0], benchUser, benchPw, dial)
		if err != nil {
			return nil, err
		}
		r.clients = append(r.clients, cl)
	}
	r.times.boot = time.Since(t)

	// Warm-up: fills pools, faults in code paths, and is checked like
	// any other op.
	t = time.Now()
	var res phaseResult
	if tr != nil {
		var warm []op
		for _, cp := range p.clients {
			warm = append(warm, cp.warm...)
		}
		// Writers warm up after readers here; the reader's oracle does
		// not depend on the writer, so the order does not matter.
		r.runClient(r.clients[0], warm, nil, nil, 0, &res)
	} else {
		r.runSegment(func(c int) []op { return p.clients[c].warm }, &res)
	}
	if res.failed() > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d ops failed", res.failed(), res.attempted())
	}
	r.times.warmup = time.Since(t)
	runtime.GC()
	r.journalBase = r.catalogFileBytes("mcat.journal")
	return r, nil
}

// close stops everything the rig started and removes its directory.
func (r *rig) close() {
	for _, cl := range r.clients {
		cl.Close()
	}
	for _, s := range r.servers {
		s.Close()
	}
	r.stopEngines()
	if r.store != nil {
		r.store.Close()
	}
	os.RemoveAll(r.dir)
}

// vaultBytes is what the storage drivers hold at the end of the run.
func (r *rig) vaultBytes() int64 {
	var total int64
	for _, rs := range r.p.resources {
		if u, ok := r.drivers[rs.name].(storage.UsageReporter); ok {
			total += u.Usage().Bytes
			continue
		}
		filepath.Walk(filepath.Join(r.dir, "vault-"+rs.name), func(_ string, fi os.FileInfo, err error) error {
			if err == nil && fi.Mode().IsRegular() {
				total += fi.Size()
			}
			return nil
		})
	}
	return total
}

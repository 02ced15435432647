package core

import (
	"errors"
	"io"
	"strings"
	"testing"

	"gosrb/internal/acl"
	"gosrb/internal/storage"
	"gosrb/internal/storage/memfs"
	"gosrb/internal/types"
)

func TestOpenReadKinds(t *testing.T) {
	b := newBroker(t)
	openRead := func(path string) (storage.ReadFile, int64, error) {
		row := b.Lookup(path)
		return b.OpenRead("alice", &row)
	}
	// Plain file: streaming handle with the right size.
	b.Ingest("alice", IngestOpts{Path: "/home/f", Data: []byte("streamable"), Resource: "disk1"})
	r, size, err := openRead("/home/f")
	if err != nil || size != 10 {
		t.Fatalf("OpenRead file = %d, %v", size, err)
	}
	data, _ := io.ReadAll(r)
	r.Close()
	if string(data) != "streamable" {
		t.Errorf("streamed = %q", data)
	}
	// Container member: byte range through the reader.
	b.CreateContainer("alice", "/home/cc", "disk1")
	b.Ingest("alice", IngestOpts{Path: "/home/member", Data: []byte("in container"), Container: "/home/cc"})
	r, size, err = openRead("/home/member")
	if err != nil || size != 12 {
		t.Fatalf("OpenRead member = %d, %v", size, err)
	}
	data, _ = io.ReadAll(r)
	r.Close()
	if string(data) != "in container" {
		t.Errorf("member streamed = %q", data)
	}
	// URL object: materialised through the fetcher.
	b.Fetcher().RegisterMemBytes("mem://u", []byte("url!"))
	b.RegisterURL("alice", "/home/u", "mem://u")
	r, size, err = openRead("/home/u")
	if err != nil || size != 4 {
		t.Fatalf("OpenRead url = %d, %v", size, err)
	}
	r.Close()
	// Link: follows to the target.
	b.Link("alice", "/home/f", "/home/lnk")
	r, size, err = openRead("/home/lnk")
	if err != nil || size != 10 {
		t.Fatalf("OpenRead link = %d, %v", size, err)
	}
	r.Close()
	// Registered file: reads in place.
	d, _ := b.Driver("disk1")
	storage.WriteAll(d, "/phys/reg", []byte("registered"))
	b.RegisterFile("alice", "/home/reg", "disk1", "/phys/reg", nil)
	r, size, err = openRead("/home/reg")
	if err != nil || size != 10 {
		t.Fatalf("OpenRead registered = %d, %v", size, err)
	}
	r.Close()
	// Missing object.
	if _, _, err := openRead("/home/ghost"); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("OpenRead missing = %v", err)
	}
}

func TestGetBrokenLink(t *testing.T) {
	b := newBroker(t)
	b.Ingest("alice", IngestOpts{Path: "/home/orig", Data: []byte("x"), Resource: "disk1"})
	b.Link("alice", "/home/orig", "/home/lnk")
	b.Delete("alice", "/home/orig")
	if _, err := b.Get("alice", "/home/lnk"); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("broken link get = %v", err)
	}
}

func TestRegisteredFileAlternateFallback(t *testing.T) {
	b := newBroker(t)
	d1, _ := b.Driver("disk1")
	d2, _ := b.Driver("disk2")
	storage.WriteAll(d1, "/p/primary", []byte("primary bytes"))
	storage.WriteAll(d2, "/p/backup", []byte("backup bytes"))
	b.RegisterFile("alice", "/home/reg", "disk1", "/p/primary", nil)
	must(t, b.RegisterReplicaSpec("alice", "/home/reg", types.AltSpec{
		Kind: types.KindRegisteredFile, Resource: "disk2", PhysicalPath: "/p/backup",
	}))
	// Primary vanishes out from under SRB (registered files may drift).
	d1.Remove("/p/primary")
	data, err := b.Get("alice", "/home/reg")
	if err != nil || string(data) != "backup bytes" {
		t.Errorf("alternate registered file = %q, %v", data, err)
	}
}

func TestSQLAlternateFallback(t *testing.T) {
	b := newBroker(t)
	db := withDB(t, b)
	db.Database().Exec("CREATE TABLE good (a)")
	db.Database().Exec("INSERT INTO good VALUES ('alt answer')")
	// Primary query references a missing table; the registered replica
	// (another SQL spec) answers instead.
	_, err := b.RegisterSQL("alice", "/home/q", types.SQLSpec{
		Resource: "dbrsrc", Query: "SELECT a FROM missing_table", Template: "XMLREL",
	})
	must(t, err)
	must(t, b.RegisterReplicaSpec("alice", "/home/q", types.AltSpec{
		Kind: types.KindSQL,
		SQL:  &types.SQLSpec{Resource: "dbrsrc", Query: "SELECT a FROM good", Template: "XMLREL"},
	}))
	out, err := b.Get("alice", "/home/q")
	if err != nil || !strings.Contains(string(out), "alt answer") {
		t.Errorf("sql alternate = %q, %v", out, err)
	}
}

func TestCopyGuards(t *testing.T) {
	b := newBroker(t)
	b.Fetcher().RegisterMemBytes("mem://x", []byte("y"))
	b.RegisterURL("alice", "/home/u", "mem://x")
	// URL/SQL/method objects cannot be copied (paper §5).
	if err := b.Copy("alice", "/home/u", "/home/u2", ""); !errors.Is(err, types.ErrUnsupported) {
		t.Errorf("copy url = %v", err)
	}
	if err := b.Copy("alice", "/home/ghost", "/home/g2", ""); !errors.Is(err, types.ErrPermission) && !errors.Is(err, types.ErrNotFound) {
		t.Errorf("copy missing = %v", err)
	}
}

func TestRemount(t *testing.T) {
	b := newBroker(t)
	// Simulate a restart: a resource exists in the catalog but the
	// driver map is fresh.
	fresh := memfs.New()
	if err := b.Remount("disk1", fresh); err != nil {
		t.Fatal(err)
	}
	if err := b.Remount("ghost", memfs.New()); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("remount unknown = %v", err)
	}
	// The remounted driver serves new ingests.
	if _, err := b.Ingest("alice", IngestOpts{Path: "/home/f", Data: []byte("x"), Resource: "disk1"}); err != nil {
		t.Fatal(err)
	}
	if u := fresh.Usage(); u.Files != 1 {
		t.Errorf("remounted driver usage = %+v", u)
	}
}

func TestIngestIntoLinkedCollection(t *testing.T) {
	b := newBroker(t)
	b.Mkdir("alice", "/home/real")
	b.LinkColl("alice", "/home/real", "/home/alias")
	// Objects ingested via the link land in the target collection.
	if _, err := b.Ingest("alice", IngestOpts{Path: "/home/alias/f", Data: []byte("x"), Resource: "disk1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Cat.GetObject("/home/real/f"); err != nil {
		t.Errorf("object should land in the link target: %v", err)
	}
}

func TestGetVersionMissingDriver(t *testing.T) {
	b := newBroker(t)
	b.Ingest("alice", IngestOpts{Path: "/home/doc", Data: []byte("v1"), Resource: "disk1"})
	must(t, b.Checkout("alice", "/home/doc"))
	must(t, b.Checkin("alice", "/home/doc", []byte("v2"), ""))
	if _, err := b.GetVersion("bob", "/home/doc", 1); !errors.Is(err, types.ErrPermission) {
		t.Errorf("foreign version read = %v", err)
	}
	if _, err := b.GetVersion("alice", "/home/doc", 99); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("missing version = %v", err)
	}
}

func TestPurgeGuards(t *testing.T) {
	b := newBroker(t)
	// Purging a non-cache resource is invalid.
	if _, err := b.PurgeCache("admin", "disk1", 0); !errors.Is(err, types.ErrInvalid) {
		t.Errorf("purge filesystem = %v", err)
	}
	if _, err := b.PurgeCache("admin", "ghost", 0); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("purge missing = %v", err)
	}
}

func TestResourceRegistrationGuards(t *testing.T) {
	b := newBroker(t)
	if err := b.AddPhysicalResource("alice", "new", types.ClassCache, "memfs", memfs.New()); !errors.Is(err, types.ErrPermission) {
		t.Errorf("non-admin resource = %v", err)
	}
	if err := b.AddLogicalResource("alice", "lr2", []string{"disk1", "disk2"}); !errors.Is(err, types.ErrPermission) {
		t.Errorf("non-admin logical = %v", err)
	}
	if err := b.AddPhysicalResource("admin", "disk1", types.ClassCache, "memfs", memfs.New()); !errors.Is(err, types.ErrExists) {
		t.Errorf("duplicate resource = %v", err)
	}
}

func TestShadowGetRendersListing(t *testing.T) {
	b := newBroker(t)
	d, _ := b.Driver("disk1")
	storage.WriteAll(d, "/cone/x.dat", []byte("X"))
	b.RegisterDirectory("alice", "/home/sh", "disk1", "/cone")
	// ShadowList on a non-shadow object is unsupported.
	b.Ingest("alice", IngestOpts{Path: "/home/plain", Data: nil, Resource: "disk1"})
	if _, err := b.ShadowList("alice", "/home/plain", "."); !errors.Is(err, types.ErrUnsupported) {
		t.Errorf("shadow list on plain = %v", err)
	}
	if _, err := b.ShadowOpen("alice", "/home/plain", "x"); !errors.Is(err, types.ErrUnsupported) {
		t.Errorf("shadow open on plain = %v", err)
	}
}

func TestExclusiveLockBlocksLinkReads(t *testing.T) {
	b := newBroker(t)
	b.Ingest("alice", IngestOpts{Path: "/home/orig", Data: []byte("x"), Resource: "disk1"})
	b.Chmod("alice", "/home/orig", "bob", acl.Read)
	b.Link("alice", "/home/orig", "/home/lnk")
	must(t, b.Lock("alice", "/home/orig", types.LockExclusive, 0))
	// The lock on the original also blocks access through the link.
	if _, err := b.Get("bob", "/home/lnk"); !errors.Is(err, types.ErrLocked) {
		t.Errorf("link read under exclusive lock = %v", err)
	}
}

func TestStatPathMissing(t *testing.T) {
	b := newBroker(t)
	if _, err := b.StatPath("alice", "/home/ghost"); !errors.Is(err, types.ErrPermission) && !errors.Is(err, types.ErrNotFound) {
		t.Errorf("stat missing = %v", err)
	}
	if _, err := b.StatPath("admin", "/home/ghost"); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("admin stat missing = %v", err)
	}
}

func TestSyncAllDirty(t *testing.T) {
	b := newBroker(t)
	// A mirrored file and a mirrored container both go dirty while
	// disk2 is down.
	b.Ingest("alice", IngestOpts{Path: "/home/f", Data: []byte("v1"), Resource: "mirror"})
	b.CreateContainer("alice", "/home/cc", "mirror")
	b.Cat.SetResourceOnline("disk2", false)
	must(t, b.Reingest("alice", "/home/f", []byte("v2")))
	if _, err := b.Ingest("alice", IngestOpts{Path: "/home/m", Data: []byte("member"), Container: "/home/cc"}); err != nil {
		t.Fatal(err)
	}
	b.Cat.SetResourceOnline("disk2", true)
	// Only admins may run the sweep.
	if _, err := b.SyncAllDirty("alice"); !errors.Is(err, types.ErrPermission) {
		t.Fatalf("non-admin sweep = %v", err)
	}
	n, err := b.SyncAllDirty("admin")
	if err != nil || n != 2 { // one file replica + one segment replica
		t.Fatalf("SyncAllDirty = %d, %v", n, err)
	}
	// Everything is clean and consistent on disk2 alone.
	b.Cat.SetResourceOnline("disk1", false)
	data, err := b.Get("alice", "/home/f")
	if err != nil || string(data) != "v2" {
		t.Errorf("file after sweep = %q, %v", data, err)
	}
	data, err = b.Get("alice", "/home/m")
	if err != nil || string(data) != "member" {
		t.Errorf("member after sweep = %q, %v", data, err)
	}
	// A second sweep finds nothing.
	b.Cat.SetResourceOnline("disk1", true)
	if n, _ := b.SyncAllDirty("admin"); n != 0 {
		t.Errorf("idle sweep = %d", n)
	}
}

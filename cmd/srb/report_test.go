package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"strings"
	"testing"

	"gosrb/internal/acl"
	"gosrb/internal/auth"
	"gosrb/internal/client"
	"gosrb/internal/core"
	"gosrb/internal/mcat"
	"gosrb/internal/server"
	"gosrb/internal/storage/memfs"
	"gosrb/internal/types"
	"gosrb/internal/wire"
)

// runOut runs one srb command against cl and returns what it printed
// on stdout and on stderr, and its error.
func runOut(t *testing.T, cl *client.Client, cmd string, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	outR, outW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	errR, errW, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	oldOut, oldErr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = outW, errW
	runErr := run(cl, cmd, args)
	os.Stdout, os.Stderr = oldOut, oldErr
	outW.Close()
	errW.Close()
	o, _ := io.ReadAll(outR)
	e, _ := io.ReadAll(errR)
	return string(o), string(e), runErr
}

// capture runs one srb command against cl and returns what it printed.
func capture(t *testing.T, cl *client.Client, cmd string, args ...string) string {
	t.Helper()
	out, _, err := runOut(t, cl, cmd, args...)
	if err != nil {
		t.Fatalf("srb %s %v: %v", cmd, args, err)
	}
	return out
}

// testServer starts an in-process srb1 with one memfs resource, disk1,
// and two users, alice and bob, who may write /home; dial logs a user in
// with the password "<user>pw".
func testServer(t *testing.T) (b *core.Broker, dial func(user string) *client.Client) {
	t.Helper()
	cat := mcat.New("admin", "sdsc")
	cat.AddUser(types.User{Name: "alice", Domain: "sdsc"})
	cat.AddUser(types.User{Name: "bob", Domain: "sdsc"})
	cat.MkColl("/home", "admin")
	cat.SetACL("/home", "alice", acl.Write)
	cat.SetACL("/home", "bob", acl.Write)
	b = core.New(cat, "srb1")
	if err := b.AddPhysicalResource("admin", "disk1", types.ClassFileSystem, "memfs", memfs.New()); err != nil {
		t.Fatal(err)
	}
	authn := auth.New()
	authn.Register("alice", "alicepw")
	authn.Register("bob", "bobpw")
	s := server.New(b, authn, server.Proxy)
	t.Cleanup(func() { s.Close() })
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return b, func(user string) *client.Client {
		cl, err := client.Dial(addr, user, user+"pw")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}
}

// TestReportVerbs drives the status verbs against a live server: every
// one goes through the single report driver, which takes -json wherever
// it stands among the words.
func TestReportVerbs(t *testing.T) {
	_, dial := testServer(t)
	alice, bob := dial("alice"), dial("bob")
	if _, err := alice.Put("/home/a.txt", []byte("a"), client.PutOpts{Resource: "disk1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Put("/home/b.txt", []byte("b"), client.PutOpts{Resource: "disk1"}); err != nil {
		t.Fatal(err)
	}

	// `usage alice -json` filters by user alice; it used to send "-json"
	// as the collection filter and print a table of nothing.
	var usage wire.UsageReply
	if err := json.Unmarshal([]byte(capture(t, alice, "usage", "alice", "-json")), &usage); err != nil {
		t.Fatalf("usage alice -json is not the reply's JSON: %v", err)
	}
	if usage.Server != "srb1" || len(usage.Entries) == 0 {
		t.Fatalf("usage alice -json = %+v, want alice's rows", usage)
	}
	for _, e := range usage.Entries {
		if e.User != "alice" {
			t.Errorf("usage alice -json carries %s's row", e.User)
		}
	}
	if out := capture(t, alice, "usage", "bob"); !strings.Contains(out, "bob") || strings.Contains(out, "alice") {
		t.Errorf("usage bob =\n%s", out)
	}

	// -json in second and in first position, on two-word and one-word verbs.
	var repair wire.RepairStatusReply
	if err := json.Unmarshal([]byte(capture(t, alice, "repair", "status", "-json")), &repair); err != nil || repair.Server != "srb1" {
		t.Errorf("repair status -json: %v %+v", err, repair)
	}
	var incidents wire.IncidentsReply
	if err := json.Unmarshal([]byte(capture(t, alice, "incident", "list", "-json")), &incidents); err != nil || incidents.Server != "srb1" {
		t.Errorf("incident list -json: %v %+v", err, incidents)
	}
	var shards wire.ShardsReply
	if err := json.Unmarshal([]byte(capture(t, alice, "shards", "-json")), &shards); err != nil || len(shards.Shards) != 1 {
		t.Errorf("shards -json: %v %+v", err, shards)
	}

	// Bare stat is the opstats report, with this process's pool beside
	// the server's.
	var stat wire.OpStatsReply
	if err := json.Unmarshal([]byte(capture(t, alice, "stat", "-json")), &stat); err != nil || stat.ClientPool == nil || stat.PeerPool == nil {
		t.Errorf("stat -json: %v, pools %v %v", err, stat.ClientPool, stat.PeerPool)
	}
	if out := capture(t, alice, "stat"); !strings.Contains(out, "server.ingest") || !strings.Contains(out, "client pool:") {
		t.Errorf("stat =\n%s", out)
	}

	// top, its phase view, and the trace of the last call as tree and
	// as waterfall.
	if out := capture(t, alice, "top", "-window", "1m", "-sort", "rate"); !strings.Contains(out, "grid via srb1") {
		t.Errorf("top =\n%s", out)
	}
	if out := capture(t, alice, "top", "-phases"); !strings.Contains(out, "Latency decomposition via srb1") {
		t.Errorf("top -phases =\n%s", out)
	}
	if _, err := alice.Stat("/home/a.txt"); err != nil {
		t.Fatal(err)
	}
	id := alice.LastTrace().String()
	if out := capture(t, alice, "trace", id); !strings.Contains(out, "trace "+id+": 1 spans") || !strings.Contains(out, "stat") {
		t.Errorf("trace =\n%s", out)
	}
	if out := capture(t, alice, "why", id); !strings.Contains(out, "dispatch") {
		t.Errorf("why =\n%s", out)
	}
	if err := run(alice, "trace", []string{"00000000000000ff"}); err == nil || !strings.Contains(err.Error(), "not found") {
		t.Errorf("trace of an unknown id = %v, want not found", err)
	}
	if err := run(alice, "trace", []string{"no-such-trace"}); !errors.Is(err, types.ErrInvalid) {
		t.Errorf("trace of a malformed id = %v, want invalid", err)
	}
	if err := run(alice, "top", []string{"-bogus"}); err == nil {
		t.Error("top -bogus should fail")
	}
}

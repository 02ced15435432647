package main

import (
	"errors"
	"testing"

	"gosrb/internal/acl"
	"gosrb/internal/auth"
	"gosrb/internal/client"
	"gosrb/internal/core"
	"gosrb/internal/mcat"
	"gosrb/internal/mcat/shard"
	"gosrb/internal/server"
	"gosrb/internal/storage/memfs"
	"gosrb/internal/types"
	"gosrb/internal/wire"
)

// TestChaosShardFailover is the sharded-catalog chaos end-to-end: two
// in-process servers, the first the leader of every catalog shard, the
// second a follower replicating over the real wire protocol
// (shardpull). The leader dies mid-write; during the outage window the
// follower's queries must still answer but report the stale shards as
// partial and its mutations must be rejected as read-only; after the
// failover threshold the follower promotes itself, accepts writes, and
// serves complete queries again. Replication is pull-driven through
// explicit SyncOnce calls, so every run replays the same schedule.
func TestChaosShardFailover(t *testing.T) {
	const shards = 2

	leadCat := shard.NewRouter(shards, "admin", "sdsc")
	leadCat.EnableMemoryJournals()
	leadCat.AddUser(types.User{Name: "alice", Domain: "sdsc"})
	leadCat.MkColl("/home", "admin")
	leadCat.SetACL("/home", "alice", acl.Write)

	b1 := core.New(leadCat, "srb1")
	if err := b1.AddPhysicalResource("admin", "disk1", types.ClassFileSystem, "memfs", memfs.New()); err != nil {
		t.Fatal(err)
	}

	authn := auth.New()
	authn.Register("alice", "alicepw")
	authn.Register("admin", "adminpw")

	s1 := server.New(b1, authn, server.Proxy)
	t.Cleanup(func() { s1.Close() })
	addr1, err := s1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// The follower server mirrors every shard off srb1, its peer, over
	// the wire: each pull is a peer call on srb2's pooled link, so
	// killing srb1 fails pulls the way it fails any call to a dead peer.
	folCat := shard.NewRouter(shards, "admin", "sdsc")
	folCat.EnableMemoryJournals()
	for i := 0; i < shards; i++ {
		folCat.SetFollower(i, "srb1")
	}

	b2 := core.New(folCat, "srb2")
	s2 := server.New(b2, authn, server.Proxy)
	t.Cleanup(func() { s2.Close() })
	addr2, err := s2.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s1.AddPeer("srb2", addr2, "zs")
	s2.AddPeer("srb1", addr1, "zs")
	folCat.SetPuller(s2.ShardPuller("admin"), 3)

	cl1, err := client.Dial(addr1, "alice", "alicepw")
	if err != nil {
		t.Fatal(err)
	}
	defer cl1.Close()
	cl2, err := client.Dial(addr2, "alice", "alicepw")
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()

	// Seed the leader and replicate: collections on both sides of the
	// shard split, objects with queryable metadata.
	for _, p := range []string{"/home/alice", "/home/alice/run1", "/home/bob", "/home/bob/run2"} {
		if err := cl1.Mkdir(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []string{"/home/alice/run1/a.dat", "/home/bob/run2/b.dat"} {
		if _, err := cl1.Put(p, []byte("payload"), client.PutOpts{Resource: "disk1"}); err != nil {
			t.Fatal(err)
		}
		if err := cl1.AddMeta(p, types.MetaUser, types.AVU{Name: "experiment", Value: "e1"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := folCat.SyncOnce(); err != nil {
		t.Fatalf("initial sync: %v", err)
	}

	q := mcat.Query{Scope: "/home", Conds: []mcat.Condition{{Attr: "experiment", Op: "=", Value: "e1"}}}
	hits, partial, err := cl2.QueryPartial(q)
	if err != nil || len(hits) != 2 || len(partial) != 0 {
		t.Fatalf("replicated query = %d hits, partial %v, err %v", len(hits), partial, err)
	}

	// Kill the leader mid-write: this mutation lands in the leader's
	// journal after the last pull, inside the asynchronous replication
	// window, and dies with the server.
	if err := cl1.AddMeta("/home/alice/run1/a.dat", types.MetaUser, types.AVU{Name: "lost", Value: "in-flight"}); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	// Outage window: the first failed pull marks every shard stale.
	if err := folCat.SyncOnce(); err == nil {
		t.Fatal("SyncOnce against a dead leader must fail")
	}
	hits, partial, err = cl2.QueryPartial(q)
	if err != nil {
		t.Fatalf("query during outage: %v", err)
	}
	if len(hits) != 2 {
		t.Errorf("stale query lost data: %d hits", len(hits))
	}
	if len(partial) != shards {
		t.Errorf("partial = %v, want every shard named", partial)
	}
	for i, want := 0, map[string]bool{"shard-0": true, "shard-1": true}; i < len(partial); i++ {
		if !want[partial[i]] {
			t.Errorf("partial[%d] = %q, not a shard name", i, partial[i])
		}
	}
	// Follower shards reject writes while they still follow.
	if err := cl2.Mkdir("/home/alice/blocked"); !errors.Is(err, types.ErrReadOnly) {
		t.Errorf("write to follower = %v, want %v", err, types.ErrReadOnly)
	}

	// Two more failed pulls reach the threshold: self-promotion.
	folCat.SyncOnce()
	folCat.SyncOnce()
	for i := 0; i < shards; i++ {
		if role, _ := folCat.Role(i); role != shard.Leader {
			t.Fatalf("shard %d role = %v after threshold, want leader", i, role)
		}
	}

	// Promoted: writes land, queries are complete again, and the state
	// is everything that replicated before the crash — the in-flight
	// mutation died inside the async window.
	if err := cl2.Mkdir("/home/alice/after-failover"); err != nil {
		t.Fatalf("write after promotion: %v", err)
	}
	hits, partial, err = cl2.QueryPartial(q)
	if err != nil || len(hits) != 2 || len(partial) != 0 {
		t.Fatalf("post-failover query = %d hits, partial %v, err %v", len(hits), partial, err)
	}
	avus, err := cl2.GetMeta("/home/alice/run1/a.dat", types.MetaUser)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range avus {
		if a.Name == "lost" {
			t.Error("mutation from inside the replication window survived the crash")
		}
	}

	// The shard-status op reflects the takeover.
	var rep wire.ShardsReply
	err = cl2.Call(wire.OpShards, struct{}{}, &rep)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Shards) != shards {
		t.Fatalf("Shards() = %d rows", len(rep.Shards))
	}
	for _, st := range rep.Shards {
		if st.Role != string(shard.Leader) || st.Stale {
			t.Errorf("shard %d status = %+v after promotion", st.Shard, st)
		}
	}
}

package mcat_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gosrb/internal/acl"
	"gosrb/internal/mcat"
	"gosrb/internal/mcat/shard"
	"gosrb/internal/types"
)

// The mutation half of the router-vs-monolith differential: one seeded
// script of mutations — collections, objects, puts, metadata, ACLs,
// structural rules, annotations, file-metadata attachments, moves that
// cross shards, deletes, and the broadcast state: accounts, groups,
// resources and the repair queue — runs against a monolithic Catalog
// and a persistent 4-shard Router. After every step both must answer
// every read method the same way (dump), every shard of the router must
// hold the same broadcast state, and at the end so must the router
// reopened at 3 and then 1 shards.

// diffSide is one catalog under test, with the path each of its
// objects was registered at: the router allocates IDs from another
// sequence, so objects are compared by birth, which a move must keep.
type diffSide struct {
	c     shard.Catalog
	birth map[types.ObjectID]string
}

func (s *diffSide) id(id types.ObjectID) string {
	if b, ok := s.birth[id]; ok {
		return b
	}
	return fmt.Sprintf("unknown ID %d", id)
}

// mutation is one step of a script. A move's desc is "move(coll) from to".
type mutation struct {
	desc string
	do   func(s *diffSide) error
}

var (
	mdUsers    = []string{"alice", "bob"}
	mdGrantees = []string{"alice", "bob", acl.GroupPrefix + "staff", acl.Public}
	mdAttrs    = []string{"band", "mag", "Tag"}
	mdValues   = []string{"J", "H", "K", "1", "2"}
	mdWords    = []string{"calibrated", "errata", "ok"}
	mdStruct   = []string{"origin", "survey"}
	// mdTop names what is made directly under the root, collections and
	// objects alike, so the two collide over spine names.
	mdTop       = []string{"z0", "top", "t1"}
	mdAccounts  = []string{"alice", "bob", "carol"}
	mdGroups    = []string{"staff", "ops"}
	mdResources = []string{"r1", "r2", "arch"}
	mdPolicies  = []string{"", "sync", "async:1", "async:3"}
)

// errUnchanged stands for a bool-reporting mutator's false, so both
// sides must agree on it as on an error.
var errUnchanged = errors.New("unchanged")

func changedIf(ok bool) error {
	if !ok {
		return errUnchanged
	}
	return nil
}

// mdSetup gives both sides the accounts, a resource, a first layer of
// collections, spine and deep, and an object /top directly under the
// root.
func mdSetup() []mutation {
	m := []mutation{
		{"users", func(s *diffSide) error {
			return errors.Join(s.c.AddUser(types.User{Name: "alice", Domain: "sdsc"}), s.c.AddUser(types.User{Name: "bob", Domain: "caltech"}),
				s.c.AddGroup("staff"), s.c.AddToGroup("staff", "alice"))
		}},
		{"resource", func(s *diffSide) error {
			return s.c.AddResource(types.Resource{Name: "r1", Kind: types.ResourcePhysical, Driver: "memfs"})
		}},
	}
	for _, p := range []string{"/z0", "/z1", "/z0/p0", "/z0/p1", "/z1/p0", "/z1/p2", "/z0/p0/d0"} {
		m = append(m, mutation{"mkcoll " + p, func(s *diffSide) error { return s.c.MkColl(p, "admin") }})
	}
	return append(m, mutation{"register /top", func(s *diffSide) error {
		id, err := s.c.RegisterObject(&types.DataObject{Collection: "/", Name: "top", Owner: "admin", DataType: "generic"})
		if err == nil {
			s.birth[id] = "#top"
		}
		return err
	}})
}

// nextMutation draws one step from the state the monolith holds.
// Objects that take part in a file-metadata attachment are pinned
// against moves, which would leave a pointer to a path that is gone, or
// on another shard, and that no layout can reshard. Deleting one drops
// the attachments that name it.
func nextMutation(rng *rand.Rand, mono *diffSide, pinned map[string]bool, step int) mutation {
	pick := func(from []string) string { return from[rng.Intn(len(from))] }
	colls := append([]string{"/"}, mono.c.SubColls("/")...)
	objs := mono.c.SubtreeObjects("/")
	var free []string
	for _, p := range objs {
		if o, err := mono.c.GetObject(p); err == nil && !pinned[mono.id(o.ID)] {
			free = append(free, p)
		}
	}
	paths := append(append([]string{"/nowhere"}, colls...), objs...)
	class := []types.MetaClass{types.MetaUser, types.MetaType}[rng.Intn(2)]
	newName := pick([]string{"c0", "c1", fmt.Sprintf("n%d", step)})

	switch k := rng.Intn(29); {
	case k < 3:
		p, owner := types.Join(pick(colls), newName), pick(mdUsers)
		if rng.Intn(3) == 0 {
			p = "/" + pick(mdTop)
		}
		if rng.Intn(3) == 0 {
			p = types.Join(p, "c0")
			return mutation{"mkcollall " + p, func(s *diffSide) error { return s.c.MkCollAll(p, owner) }}
		}
		return mutation{"mkcoll " + p, func(s *diffSide) error { return s.c.MkColl(p, owner) }}
	case k < 7:
		coll, name, owner := pick(colls), pick([]string{"a.dat", "b.dat", fmt.Sprintf("o%d.dat", step)}), pick(mdUsers)
		if rng.Intn(3) == 0 {
			coll, name = "/", pick(mdTop)
		}
		birth := fmt.Sprintf("#%d", step)
		return mutation{"register " + types.Join(coll, name), func(s *diffSide) error {
			o := &types.DataObject{Collection: coll, Name: name, Owner: owner, DataType: "generic", Size: int64(step),
				Replicas: []types.Replica{{Number: 0, Resource: "r1", PhysicalPath: "/vault/" + birth}}}
			id, err := s.c.RegisterObject(o)
			if err == nil {
				s.birth[id] = birth
			}
			return err
		}}
	case k < 9:
		p, avu := pick(paths), types.AVU{Name: pick(mdAttrs), Value: pick(mdValues)}
		return mutation{fmt.Sprintf("addmeta %s %v", p, avu), func(s *diffSide) error { return s.c.AddMeta(p, class, avu) }}
	case k < 10:
		p, name, old, avu := pick(paths), pick(mdAttrs), pick(append(mdValues, "")), types.AVU{Name: pick(mdAttrs), Value: pick(mdValues)}
		return mutation{fmt.Sprintf("updmeta %s %s=%q -> %v", p, name, old, avu), func(s *diffSide) error {
			_, err := s.c.UpdateMeta(p, class, name, old, avu)
			return err
		}}
	case k < 11:
		p, name, val := pick(paths), pick(mdAttrs), pick(append(mdValues, ""))
		return mutation{fmt.Sprintf("delmeta %s %s=%q", p, name, val), func(s *diffSide) error {
			_, err := s.c.DeleteMeta(p, class, name, val)
			return err
		}}
	case k < 12:
		p, who, lvl := pick(paths), pick(mdGrantees), acl.Level(rng.Intn(6))
		return mutation{fmt.Sprintf("setacl %s %s %v", p, who, lvl), func(s *diffSide) error { return s.c.SetACL(p, who, lvl) }}
	case k < 13:
		p, name := pick(colls), pick(mdStruct)
		if rng.Intn(3) == 0 {
			return mutation{"delstructural " + p + " " + name, func(s *diffSide) error { return s.c.DeleteStructural(p, name) }}
		}
		attr := types.StructuralAttr{Name: name, Mandatory: rng.Intn(2) == 0, Defaults: []string{pick(mdValues)}}
		return mutation{fmt.Sprintf("structural %s %+v", p, attr), func(s *diffSide) error { return s.c.SetStructural(p, attr) }}
	case k < 14:
		p, who := pick(paths), pick(mdUsers)
		if rng.Intn(3) == 0 {
			return mutation{"delannotations " + p + " " + who, func(s *diffSide) error {
				_, err := s.c.DeleteAnnotations(p, who)
				return err
			}}
		}
		a := types.Annotation{Author: who, Text: pick(mdWords)}
		return mutation{"annotate " + p, func(s *diffSide) error { return s.c.AddAnnotation(p, a) }}
	case k < 15 && len(objs) > 0:
		// Siblings only: an attachment and its file then share a routing
		// key under every layout, and any collection move takes both.
		p := pick(objs)
		var sibs []string
		for _, q := range objs {
			if q != p && types.Parent(q) == types.Parent(p) {
				sibs = append(sibs, q)
			}
		}
		if len(sibs) == 0 {
			break
		}
		f := pick(sibs)
		for _, q := range []string{p, f} {
			o, _ := mono.c.GetObject(q)
			pinned[mono.id(o.ID)] = true
		}
		return mutation{"filemeta " + p + " " + f, func(s *diffSide) error { return s.c.AttachFileMeta(p, f) }}
	case k < 18 && len(free) > 0:
		p, coll, name := pick(free), pick(colls), pick([]string{"m.dat", fmt.Sprintf("m%d.dat", step)})
		return mutation{"move " + p + " " + types.Join(coll, name), func(s *diffSide) error { return s.c.MoveObject(p, coll, name) }}
	case k < 19:
		p, to := pick(colls), types.Join(pick(colls), fmt.Sprintf("v%d", step))
		return mutation{"movecoll " + p + " " + to, func(s *diffSide) error { return s.c.MoveColl(p, to) }}
	case k < 20 && len(objs) > 0:
		p := pick(objs)
		return mutation{"delete " + p, func(s *diffSide) error { return s.c.DeleteObject(p) }}
	case k < 21:
		p := pick(colls)
		return mutation{"rmcoll " + p, func(s *diffSide) error { return s.c.DeleteColl(p) }}
	case k < 22:
		name := pick(mdAccounts)
		if rng.Intn(2) == 0 {
			return mutation{"deluser " + name, func(s *diffSide) error { return s.c.DeleteUser(name) }}
		}
		return mutation{"adduser " + name, func(s *diffSide) error { return s.c.AddUser(types.User{Name: name, Domain: "sdsc"}) }}
	case k < 23:
		g, u := pick(mdGroups), pick(mdAccounts)
		switch rng.Intn(3) {
		case 0:
			return mutation{"addgroup " + g, func(s *diffSide) error { return s.c.AddGroup(g) }}
		case 1:
			return mutation{"addtogroup " + g + " " + u, func(s *diffSide) error { return s.c.AddToGroup(g, u) }}
		}
		return mutation{"rmfromgroup " + g + " " + u, func(s *diffSide) error { return s.c.RemoveFromGroup(g, u) }}
	case k < 24:
		res := types.Resource{Name: pick(mdResources), Kind: types.ResourcePhysical, Driver: "memfs"}
		if res.Name == "arch" {
			res = types.Resource{Name: res.Name, Kind: types.ResourceLogical, Members: []string{"r1", "r2"}}
		}
		return mutation{"addresource " + res.Name, func(s *diffSide) error { return s.c.AddResource(res) }}
	case k < 25:
		name := pick(mdResources)
		switch rng.Intn(3) {
		case 0:
			online := rng.Intn(2) == 0
			return mutation{fmt.Sprintf("setonline %s %v", name, online), func(s *diffSide) error { return s.c.SetResourceOnline(name, online) }}
		case 1:
			policy := pick(mdPolicies)
			return mutation{fmt.Sprintf("replpolicy %s %q", name, policy), func(s *diffSide) error { return s.c.SetResourcePolicy(name, policy) }}
		}
		who, lvl := pick(mdGrantees), acl.Level(rng.Intn(6))
		return mutation{fmt.Sprintf("setresourceacl %s %s %v", name, who, lvl), func(s *diffSide) error { return s.c.SetResourceACL(name, who, lvl) }}
	case k < 26:
		task := types.RepairTask{Path: pick(paths), Resource: pick(mdResources), Kind: "replicate"}
		return mutation{"repairenq " + task.Path + " " + task.Resource, func(s *diffSide) error { return changedIf(s.c.EnqueueRepair(task)) }}
	case k < 27:
		keys := []string{"nowhere"}
		for _, t := range mono.c.PendingRepairs() {
			keys = append(keys, t.Key)
		}
		key := pick(keys)
		return mutation{"repairdone " + key, func(s *diffSide) error { return changedIf(s.c.CompleteRepair(key)) }}
	case k < 29:
		// A put: new names, names under / that an object or a spine
		// collection holds, a missing collection, an unnamed triplet.
		coll, name, owner := pick(colls), pick([]string{"a.dat", "i.dat", fmt.Sprintf("i%d.dat", step)}), pick(mdUsers)
		switch rng.Intn(4) {
		case 0:
			coll, name = "/", pick(mdTop)
		case 1:
			coll = "/nowhere"
		}
		meta := []types.AVU{{Name: pick(mdAttrs), Value: pick(mdValues)}, {Name: pick(mdAttrs), Value: pick(mdValues)}}
		if rng.Intn(5) == 0 {
			meta[1].Name = ""
		}
		p, birth := types.Join(coll, name), fmt.Sprintf("#%d", step)
		return mutation{fmt.Sprintf("ingest %s %v", p, meta), func(s *diffSide) error {
			id, err := s.c.NewObjectID(p)
			if err != nil {
				return err
			}
			o := &types.DataObject{ID: id, Collection: coll, Name: name, Owner: owner, DataType: "generic", Size: int64(step), Checksum: birth,
				Replicas: []types.Replica{{Number: 0, Resource: "r1", PhysicalPath: "/vault/" + birth, Status: types.ReplicaClean, Size: int64(step), Checksum: birth}}}
			if err := s.c.Ingest(o, meta); err != nil {
				return err
			}
			s.birth[id] = birth
			return nil
		}}
	}
	p := pick(paths)
	return mutation{"annotate " + p, func(s *diffSide) error { return s.c.AddAnnotation(p, types.Annotation{Author: "alice", Text: "ok"}) }}
}

func TestMutationDifferential(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { mutationDifferential(t, seed, 300) })
	}
}

func mutationDifferential(t *testing.T, seed int64, steps int) {
	epoch := time.Date(2002, 7, 24, 9, 0, 0, 0, time.UTC)
	clock := func() time.Time { return epoch }
	dir := t.TempDir()
	opt := shard.OpenOptions{
		Shards:      4,
		CatalogPath: filepath.Join(dir, "catalog.json"),
		JournalPath: filepath.Join(dir, "journal.log"),
		Admin:       "admin",
		Domain:      "local",
	}
	st, err := shard.Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	st.Router().SetClock(clock)
	monoCat := mcat.New("admin", "local")
	monoCat.SetClock(clock)
	mono := &diffSide{c: monoCat, birth: map[types.ObjectID]string{}}
	router := &diffSide{c: st.Router(), birth: map[types.ObjectID]string{}}

	ring := st.Router().Map()
	rng := rand.New(rand.NewSource(seed))
	pinned := map[string]bool{"#top": true} // stays put, so mkcoll /top keeps colliding with it
	script := mdSetup()
	var applied, refused, unsupported, crossMoves, collisions, puts, refusedPuts int
	for step := 0; step < len(script)+steps; step++ {
		var m mutation
		if step < len(script) {
			m = script[step]
		} else {
			m = nextMutation(rng, mono, pinned, step)
		}
		if f := strings.Fields(m.desc); f[0] == "mkcollall" && types.Depth(f[1]) == 2 || f[0] == "mkcoll" && types.Depth(f[1]) == 1 {
			if _, err := mono.c.GetObject("/" + strings.Split(f[1], "/")[1]); err == nil {
				collisions++ // the spine collection's name is an object's
			}
		}
		rerr := m.do(router)
		shard0 := broadcastState(st.Router().Shard(0))
		for i := 1; i < st.Router().N(); i++ {
			if d := diffDump(broadcastState(st.Router().Shard(i)), shard0); d != "" {
				t.Fatalf("step %d, %s: shard %d and shard 0 hold different broadcast state at %s", step, m.desc, i, d)
			}
		}
		if errors.Is(rerr, types.ErrUnsupported) {
			unsupported++ // a sharding restriction: the monolith skips it too
			continue
		}
		merr := m.do(mono)
		if (rerr == nil) != (merr == nil) {
			t.Fatalf("step %d, %s: router err %v, monolith err %v", step, m.desc, rerr, merr)
		}
		put := strings.HasPrefix(m.desc, "ingest ")
		if merr == nil {
			applied++
			if f := strings.Fields(m.desc); strings.HasPrefix(f[0], "move") && ring.ShardOfPath(f[1]) != ring.ShardOfPath(f[2]) {
				crossMoves++
			}
			if put {
				puts++
			}
		} else {
			refused++
			if put {
				refusedPuts++
			}
		}
		if d := diffDump(dump(router.c, router.id), dump(mono.c, mono.id)); d != "" {
			t.Fatalf("step %d, %s: router and monolith differ at %s", step, m.desc, d)
		}
	}
	if applied < steps/2 || refused == 0 || unsupported == 0 || crossMoves < 10 || collisions == 0 || puts == 0 || refusedPuts == 0 {
		t.Errorf("the generator has drifted: %d applied, %d refused, %d unsupported, %d cross-shard moves, %d spine-name collisions, %d puts committed and %d refused",
			applied, refused, unsupported, crossMoves, collisions, puts, refusedPuts)
	}

	want := dump(mono.c, mono.id)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{3, 1} {
		opt.Shards = n
		st, err := shard.Open(opt)
		if err != nil {
			t.Fatalf("reopen at %d shards: %v", n, err)
		}
		if d := diffDump(dump(st.Router(), router.id), want); d != "" {
			t.Errorf("reopened at %d shards, the router differs from the monolith at %s", n, d)
		}
		st.Close()
	}
}

// broadcastState renders the entries of one shard's Export that every
// shard must hold alike: accounts and groups, resources with their
// state and ACLs, and spine collections with their ACLs and structural
// rules. New stamps the admin account with the wall clock, so its
// creation time is left out.
func broadcastState(c *mcat.Catalog) []string {
	spine := map[string]bool{"/": true}
	var out []string
	for _, e := range c.Export("/") {
		switch e.Op {
		case "adduser":
			if e.User.Name == "admin" {
				u := *e.User
				u.CreatedAt = time.Time{}
				e.User = &u
			}
		case "addgroup", "addtogroup", "addresource", "setonline", "setresourceacl":
		case "mkcoll":
			if types.Depth(e.Coll.Path) != 1 {
				continue
			}
			spine[e.Coll.Path] = true
		case "setacl", "structural":
			if !spine[e.Path] {
				continue
			}
		default:
			continue
		}
		b, err := json.Marshal(e)
		if err != nil {
			panic(err)
		}
		out = append(out, string(b))
	}
	return out
}

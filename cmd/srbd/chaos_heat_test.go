package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"gosrb/internal/acl"
	"gosrb/internal/auth"
	"gosrb/internal/client"
	"gosrb/internal/core"
	"gosrb/internal/mcat/shard"
	"gosrb/internal/mysrb"
	"gosrb/internal/obs"
	"gosrb/internal/server"
	"gosrb/internal/storage/memfs"
	"gosrb/internal/types"
	"gosrb/internal/wire"
)

// TestChaosHeatObservatory is the heat-observatory end-to-end: a
// four-shard leader runs a seeded hot-key workload while a wire-
// replicated follower lags behind. The hot prefix must surface in the
// top-K on every surface (the heat wire op, the admin /heat endpoint,
// the MySRB heat page), the follower's lag gauge must trip a declared
// replag_seconds SLO rule that FIREs and then RESOLVEs after a sync,
// /healthz must warn about the lag without going 503, and the per-shard
// heat join must name the overloaded shard and show the imbalance.
// All timing-sensitive state is driven by explicit RefreshReplag calls
// with synthetic clocks so the schedule replays identically under -race.
func TestChaosHeatObservatory(t *testing.T) {
	const shards = 4

	leadCat := shard.NewRouter(shards, "admin", "sdsc")
	leadCat.EnableMemoryJournals()
	leadCat.AddUser(types.User{Name: "alice", Domain: "sdsc"})
	leadCat.MkColl("/home", "admin")
	leadCat.SetACL("/home", "alice", acl.Write)

	b1 := core.New(leadCat, "srb1")
	leadCat.SetMetrics(b1.Metrics())
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
	admin1 := serveAdmin(t, s1)

	// Pick workload prefixes off the deterministic ring: a hot and a
	// warm prefix co-homed on one shard (the overload target), plus a
	// background prefix somewhere else.
	var hot, warm, cold string
	candidates := make([]string, 0, 16)
	for c := 'a'; c <= 'p'; c++ {
		candidates = append(candidates, fmt.Sprintf("/home/proj-%c", c))
	}
	hot = candidates[0]
	home := leadCat.Map().Shard(hot)
	for _, p := range candidates[1:] {
		switch {
		case warm == "" && leadCat.Map().Shard(p) == home:
			warm = p
		case cold == "" && leadCat.Map().Shard(p) != home:
			cold = p
		}
	}
	if warm == "" || cold == "" {
		t.Fatalf("ring layout gave no co-homed pair among %v", candidates)
	}

	cl1, err := client.Dial(addr1, "alice", "alicepw")
	if err != nil {
		t.Fatal(err)
	}
	defer cl1.Close()

	// Seed and run the skewed workload: the hot prefix takes an order of
	// magnitude more reads than the background one.
	reads := map[string]int{hot: 60, warm: 20, cold: 5}
	for _, prefix := range []string{hot, warm, cold} {
		if err := cl1.Mkdir(prefix); err != nil {
			t.Fatal(err)
		}
		obj := prefix + "/data.dat"
		if _, err := cl1.Put(obj, []byte(strings.Repeat("x", 256)), client.PutOpts{Resource: "disk1"}); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < reads[prefix]; i++ {
			if _, err := cl1.Get(obj); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Surface 1: the wire op. The hot prefix must lead the key top-K,
	// the hot object must be tracked, and all four shards must report.
	var rep wire.HeatReply
	if err := cl1.Call(wire.OpHeat, struct{}{}, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Keys) == 0 || rep.Keys[0].Key != hot {
		t.Fatalf("heat keys top = %+v, want %q first", rep.Keys, hot)
	}
	foundObj := false
	for _, o := range rep.Objects {
		if o.Key == hot+"/data.dat" {
			foundObj = true
		}
	}
	if !foundObj {
		t.Fatalf("hot object missing from object table: %+v", rep.Objects)
	}
	if len(rep.Shards) != shards {
		t.Fatalf("heat reply carries %d shards, want %d", len(rep.Shards), shards)
	}

	// The join: the shard homing the hot and the warm prefix carries the
	// heat of both, far above the mean, and the gauge says the same.
	checkJoin := func(surface string, rep wire.HeatReply) {
		t.Helper()
		if len(rep.ShardHeat) != shards {
			t.Fatalf("%s: heat join has %d rows, want %d", surface, len(rep.ShardHeat), shards)
		}
		hottest := 0
		for i, sh := range rep.ShardHeat {
			if sh.Score > rep.ShardHeat[hottest].Score {
				hottest = i
			}
		}
		if hottest != home || rep.ShardHeat[home].HotKeys < 2 || rep.ShardHeat[home].Objects < 2 {
			t.Fatalf("%s: hottest shard = %d, want %d with the hot and warm prefixes: %+v", surface, hottest, home, rep.ShardHeat)
		}
		if rep.Imbalance < 2 {
			t.Fatalf("%s: imbalance %.2fx for a workload with 80 of 85 reads on one of %d shards", surface, rep.Imbalance, shards)
		}
	}
	checkJoin("wire", rep)
	if v := b1.Metrics().Gauge("mcat.shard.heat_imbalance_pct").Value(); v < 200 {
		t.Fatalf("heat_imbalance_pct gauge = %d after a join at %.2fx", v, rep.Imbalance)
	}

	// Surface 2: the admin endpoint, JSON and text.
	var arep wire.HeatReply
	resp, err := http.Get("http://" + admin1 + "/heat?format=json")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&arep)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(arep.Keys) == 0 || arep.Keys[0].Key != hot {
		t.Fatalf("admin /heat top key = %+v, want %q", arep.Keys, hot)
	}
	checkJoin("admin /heat", arep)
	text := adminBody(t, admin1, "/heat")
	if !strings.Contains(text, hot) || !strings.Contains(text, "shard heat (imbalance") {
		t.Fatalf("admin /heat text missing hot prefix or heat join:\n%s", text)
	}

	// Surface 3: the MySRB heat page over the same broker.
	app := mysrb.New(b1, authn)
	web := httptest.NewServer(app)
	t.Cleanup(web.Close)
	wc := &http.Client{Jar: &heatJar{}}
	if _, err := wc.PostForm(web.URL+"/login", url.Values{"user": {"alice"}, "password": {"alicepw"}}); err != nil {
		t.Fatal(err)
	}
	page := httpBody(t, wc, web.URL+"/heat")
	if !strings.Contains(page, hot) || !strings.Contains(page, "Shard heat") || !strings.Contains(page, "Imbalance (hottest shard over mean)") {
		t.Fatalf("mysrb /heat page missing hot prefix, heat bars or imbalance:\n%s", page[:min(600, len(page))])
	}

	// The follower: four shards replicating over the real wire protocol.
	folCat := shard.NewRouter(shards, "admin", "sdsc")
	folCat.EnableMemoryJournals()
	b2 := core.New(folCat, "srb2")
	folCat.SetMetrics(b2.Metrics())
	for i := 0; i < shards; i++ {
		folCat.SetFollower(i, addr1)
	}
	folCat.SetPuller(func(peer string, idx int, after uint64) (shard.PullResult, error) {
		pc, err := client.Dial(peer, "admin", "adminpw")
		if err != nil {
			return shard.PullResult{}, err
		}
		defer pc.Close()
		r, err := pc.ShardPull(idx, after)
		if err != nil {
			return shard.PullResult{}, err
		}
		return shard.PullResult{Entries: r.Entries, Snapshot: r.Snapshot, Seq: r.Seq}, nil
	}, 1000)

	s2 := server.New(b2, authn, server.Proxy)
	t.Cleanup(func() { s2.Close() })
	if _, err := s2.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	admin2 := serveAdmin(t, s2)

	// A lag SLO on the follower. Evaluation reads the replag gauges
	// live, so the schedule below drives them with explicit clocks.
	rules, err := obs.ParseSLORules("replag_seconds < 30s over 5m")
	if err != nil {
		t.Fatal(err)
	}
	ev := obs.NewSLOEvaluator(b2.Metrics(), rules)
	b2.SetSLO(ev)

	if err := folCat.SyncOnce(); err != nil {
		t.Fatalf("initial sync: %v", err)
	}
	now := time.Now()
	if st := ev.Evaluate(now); st[0].Violating {
		t.Fatalf("caught-up follower violates the lag SLO: %+v", st[0])
	}

	// The leader keeps writing; the follower stops pulling. A synthetic
	// minute of silence pushes the lag gauge past the 30s objective.
	if err := cl1.Mkdir(hot + "/run2"); err != nil {
		t.Fatal(err)
	}
	folCat.RefreshReplag(now.Add(time.Minute))
	st := ev.Evaluate(now.Add(time.Minute))
	if !st[0].Violating {
		t.Fatalf("lagging follower eval = %+v, want violating", st[0])
	}
	alerts := ev.AlertLog().Recent(0)
	if len(alerts) != 1 || !alerts[0].Firing {
		t.Fatalf("alerts = %+v, want one FIRED transition", alerts)
	}

	// /healthz mirrors the repair-backlog treatment: the lag is a warn
	// line, never a 503. The probe reads the exported gauges (which the
	// synthetic refresh above set), so the check replays identically.
	resp, err = http.Get("http://" + admin2 + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hbody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz = %d during lag, want 200 (warn, not degraded):\n%s", resp.StatusCode, hbody)
	}
	if !strings.Contains(string(hbody), "replication lag") {
		t.Fatalf("/healthz carries no replication-lag warn line:\n%s", hbody)
	}

	// The follower catches up: the sync's own gauge refresh clears the
	// lag and the rule RESOLVEs.
	if err := folCat.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	if st := ev.Evaluate(now.Add(2 * time.Minute)); st[0].Violating {
		t.Fatalf("caught-up eval = %+v, want resolved", st[0])
	}
	alerts = ev.AlertLog().Recent(0)
	if len(alerts) != 2 || alerts[1].Firing {
		t.Fatalf("alerts = %+v, want FIRED then RESOLVED", alerts)
	}
	if body := adminBody(t, admin2, "/healthz"); strings.Contains(body, "replication lag") {
		t.Fatalf("/healthz still warns after catch-up:\n%s", body)
	}

	// `srb shards` on the leader now reports the follower's ack: the
	// replag fields ride the status op.
	var srep wire.ShardsReply
	if err := cl1.Call(wire.OpShards, struct{}{}, &srep); err != nil {
		t.Fatal(err)
	}
	if len(srep.Shards) != shards {
		t.Fatalf("Shards() = %d rows, want %d", len(srep.Shards), shards)
	}
}

// adminBody fetches an admin endpoint's body.
func adminBody(t *testing.T, addr, path string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return string(b)
}

// httpBody fetches a URL with the given (cookie-carrying) client.
func httpBody(t *testing.T, c *http.Client, url string) string {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return string(b)
}

// heatJar is a minimal single-host cookie jar for the MySRB login.
type heatJar struct{ cookies []*http.Cookie }

func (j *heatJar) SetCookies(u *url.URL, cs []*http.Cookie) { j.cookies = cs }
func (j *heatJar) Cookies(u *url.URL) []*http.Cookie        { return j.cookies }

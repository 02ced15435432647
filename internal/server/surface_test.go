package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/cookiejar"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"

	"gosrb/internal/acl"
	"gosrb/internal/auth"
	"gosrb/internal/client"
	"gosrb/internal/core"
	"gosrb/internal/mcat"
	"gosrb/internal/mysrb"
	"gosrb/internal/obs"
	"gosrb/internal/report"
	"gosrb/internal/storage/memfs"
	"gosrb/internal/types"
	"gosrb/internal/wire"
)

// clockFields are the reply fields that depend on when, or through which
// door, a surface was asked rather than on what the daemon holds: two
// honest answers a millisecond apart differ in them. Gauges are
// instantaneous, and the pipeline-depth histogram takes its sample when a
// pipelined request is read — the wire fetch has counted itself there
// before its handler runs, unlike everything dispatch records after it.
var clockFields = map[string]bool{
	"UptimeSeconds": true, "CoveredSeconds": true, "PerSec": true, "Gauges": true, "OldestAge": true,
	"server.pipeline.depth": true,
}

// settled turns a reply into plain JSON values with the clock fields
// and the named extra fields removed.
func settled(t *testing.T, reply any, drop ...string) any {
	t.Helper()
	raw, err := json.Marshal(reply)
	if err != nil {
		t.Fatal(err)
	}
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	var strip func(v any)
	strip = func(v any) {
		switch x := v.(type) {
		case map[string]any:
			for k := range x {
				if clockFields[k] {
					delete(x, k)
				}
			}
			for _, k := range drop {
				delete(x, k)
			}
			for _, e := range x {
				strip(e)
			}
		case []any:
			for _, e := range x {
				strip(e)
			}
		}
	}
	strip(v)
	return v
}

// firstDiff names the first JSON path at which two comparable values
// differ ("" when they are equal).
func firstDiff(path string, a, b any) string {
	am, aok := a.(map[string]any)
	bm, bok := b.(map[string]any)
	as, aok2 := a.([]any)
	bs, bok2 := b.([]any)
	if aok2 && bok2 && len(as) == len(bs) {
		for i := range as {
			if d := firstDiff(fmt.Sprintf("%s[%d]", path, i), as[i], bs[i]); d != "" {
				return d
			}
		}
		return ""
	}
	if aok && bok {
		for k := range am {
			if d := firstDiff(path+"."+k, am[k], bm[k]); d != "" {
				return d
			}
		}
		for k := range bm {
			if _, ok := am[k]; !ok {
				return fmt.Sprintf("%s.%s: missing vs %v", path, k, bm[k])
			}
		}
		return ""
	}
	if !reflect.DeepEqual(a, b) {
		return fmt.Sprintf("%s: %v vs %v", path, a, b)
	}
	return ""
}

// TestReportSurfaces is the surface matrix: every report row is fetched
// from the admin route as JSON, through the env a MySRB app builds over
// the same broker, and over the wire, and all three must carry the same
// values. The feeds MySRB draws as plain tables must also show on their
// page exactly what the row renders.
func TestReportSurfaces(t *testing.T) {
	cat := mcat.New("admin", "sdsc")
	cat.AddUser(types.User{Name: "alice", Domain: "sdsc"})
	cat.MkColl("/home", "admin")
	cat.SetACL("/home", "alice", acl.Write)
	b := core.New(cat, "srb1")
	if err := b.AddPhysicalResource("admin", "disk1", types.ClassFileSystem, "memfs", memfs.New()); err != nil {
		t.Fatal(err)
	}
	rec, err := obs.NewIncidentRecorder(obs.IncidentConfig{
		Dir: t.TempDir(), Server: "srb1", Registry: b.Metrics(), ProfileDur: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	b.SetIncidents(rec)
	authn := auth.New()
	authn.Register("alice", "alicepw")
	s := New(b, authn, Proxy)
	t.Cleanup(func() { s.Close() })
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	adminAddr := serveAdmin(t, s)
	web := httptest.NewServer(mysrb.New(b, authn))
	t.Cleanup(web.Close)
	jar, _ := cookiejar.New(nil)
	browser := &http.Client{Jar: jar}
	if _, err := browser.PostForm(web.URL+"/login", url.Values{"user": {"alice"}, "password": {"alicepw"}}); err != nil {
		t.Fatal(err)
	}
	mysrbEnv := report.Env{Name: b.ServerName(), Broker: b} // what mysrb.New builds

	// Traffic, so no feed is empty by accident: usage rows, op histograms,
	// heat keys, a trace, a rollup to window against.
	cl, err := client.Dial(addr, "alice", "alicepw")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })
	b.Metrics().CaptureRollup(time.Now().Add(-time.Minute))
	if _, err := cl.Put("/home/a.txt", []byte("surface matrix"), client.PutOpts{Resource: "disk1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Get("/home/a.txt"); err != nil {
		t.Fatal(err)
	}
	traceID := cl.LastTrace().String()
	if _, err := cl.Stat("/home/nope"); err == nil {
		t.Fatal("stat of a missing path succeeded")
	}

	bundle, err := rec.Capture(time.Now(), "manual", "manual", "surface matrix", 0)
	if err != nil {
		t.Fatal(err)
	}

	pages := map[string]string{ // feed -> the MySRB page that draws it as tables
		"usage": "/usage", "shards": "/shards", "peers": "/peers", "incidents": "/incidents",
		"heat": "/heat", "repair": "/status",
	}
	for _, rp := range report.All {
		t.Run(rp.Name, func(t *testing.T) {
			p := url.Values{}
			if rp.Name == "trace" {
				p.Set("id", traceID)
			}
			// No surface below records anything before it has produced its
			// reply, and the wire — the only one that records at all — goes
			// last: all three look at the same registry state.
			q := url.Values{"format": {"json"}}
			for k, v := range p {
				q[k] = v
			}
			resp, err := http.Get("http://" + adminAddr + "/" + rp.Name + "?" + q.Encode())
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("admin /%s = %d: %s", rp.Name, resp.StatusCode, body)
			}
			var admin any
			if err := json.Unmarshal(body, &admin); err != nil {
				t.Fatalf("admin /%s JSON: %v", rp.Name, err)
			}
			admin = settled(t, admin)

			if rp.Name != "pool" { // a MySRB app holds no federation pool
				viaMySRB, err := rp.Produce(mysrbEnv, p)
				if err != nil {
					t.Fatalf("MySRB data path: %v", err)
				}
				if d := firstDiff("", settled(t, viaMySRB, "PeerPool"), settled(t, admin, "PeerPool")); d != "" {
					t.Errorf("MySRB data path and admin route disagree at %s", d)
				}
			}

			var wireReply any
			switch {
			case rp.Op != "":
				wireReply, err = rp.Fetch(cl.Call, p)
			case rp.Name == "phases": // srb derives it from the grid op
				g, ferr := report.Lookup("grid").Fetch(cl.Call, p)
				if ferr != nil {
					t.Fatal(ferr)
				}
				wireReply = report.PhasesOf(g.(wire.GridStatReply))
				admin = settled(t, admin, "ExemplarMicros") // the daemon's own setting
			default:
				return // pool: no wire op
			}
			if err != nil {
				t.Fatalf("wire: %v", err)
			}
			if d := firstDiff("", settled(t, wireReply, "ExemplarMicros"), admin); d != "" {
				t.Errorf("wire and admin route disagree at %s", d)
			}

			if page := pages[rp.Name]; page != "" {
				// The wire fetch has since recorded itself (its usage row, its
				// span), so the page is held to the row's rendering of what the
				// MySRB data path produces now.
				now, _ := rp.Produce(mysrbEnv, p)
				var want bytes.Buffer
				rp.Render(now, p).WriteHTML(&want)
				resp, err := browser.Get(web.URL + page)
				if err != nil {
					t.Fatal(err)
				}
				html, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if !strings.Contains(string(html), want.String()) {
					t.Errorf("MySRB %s does not draw the row's rendering:\n page %s\n want %s", page, html, want.String())
				}
			}
		})
	}

	// One bundle member, downloaded from both HTTP surfaces: the same
	// bytes, and a 404 for what the bundle does not hold.
	fetch := func(c *http.Client, u string) (int, []byte, http.Header) {
		resp, err := c.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, body, resp.Header
	}
	_, files, err := rec.Get(bundle.ID)
	if err != nil {
		t.Fatal(err)
	}
	member := bundle.Files[0]
	code, viaAdmin, _ := fetch(http.DefaultClient, "http://"+adminAddr+"/incidents/"+bundle.ID+"?file="+member)
	if code != http.StatusOK || !bytes.Equal(viaAdmin, files[member]) {
		t.Errorf("admin bundle download = %d, %d bytes, want the %d of %s", code, len(viaAdmin), len(files[member]), member)
	}
	code, viaWeb, hdr := fetch(browser, web.URL+"/incident?id="+bundle.ID+"&file="+member)
	if code != http.StatusOK || !bytes.Equal(viaWeb, files[member]) || !strings.Contains(hdr.Get("Content-Disposition"), member) {
		t.Errorf("MySRB bundle download = %d, %d bytes, disposition %q", code, len(viaWeb), hdr.Get("Content-Disposition"))
	}
	var meta obs.IncidentMeta
	if code, body, _ := fetch(http.DefaultClient, "http://"+adminAddr+"/incidents/"+bundle.ID); code != http.StatusOK ||
		json.Unmarshal(body, &meta) != nil || meta.ID != bundle.ID {
		t.Errorf("admin bundle meta = %d %s", code, body)
	}
	for _, u := range []string{
		"http://" + adminAddr + "/incidents/" + bundle.ID + "?file=nope",
		"http://" + adminAddr + "/incidents/nope",
	} {
		if code, _, _ := fetch(http.DefaultClient, u); code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", u, code)
		}
	}
	if code, _, _ := fetch(browser, web.URL+"/incident?id="+bundle.ID+"&file=nope"); code != http.StatusNotFound {
		t.Errorf("MySRB download of a missing member = %d, want 404", code)
	}
}

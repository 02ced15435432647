package main

import (
	"bytes"
	"encoding/json"
	"io"
	"mime/multipart"
	"net/http"
	"net/http/cookiejar"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"gosrb/internal/client"
	"gosrb/internal/mcat"
	"gosrb/internal/wire"
)

// webSession is a browser on a daemon's MySRB interface, logged in as
// the administrator through the web form.
type webSession struct {
	t   *testing.T
	web string
	hc  *http.Client
}

func login(t *testing.T, d *srbd) *webSession {
	t.Helper()
	jar, _ := cookiejar.New(nil)
	s := &webSession{t: t, web: d.web, hc: &http.Client{Jar: jar}}
	s.post("/login", url.Values{"user": {"admin"}, "password": {"adminpw"}})
	return s
}

// post submits a web form and returns the page the redirect lands on.
func (s *webSession) post(path string, form url.Values) string {
	s.t.Helper()
	resp, err := s.hc.PostForm(s.web+path, form)
	if err != nil {
		s.t.Fatalf("POST %s: %v", path, err)
	}
	return s.page(path, resp)
}

func (s *webSession) get(url string) string {
	s.t.Helper()
	resp, err := s.hc.Get(url)
	if err != nil {
		s.t.Fatalf("GET %s: %v", url, err)
	}
	return s.page(url, resp)
}

func (s *webSession) page(what string, resp *http.Response) string {
	s.t.Helper()
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || strings.Contains(resp.Request.URL.RawQuery, "err=") {
		s.t.Fatalf("%s: status %d at %s\n%s", what, resp.StatusCode, resp.Request.URL, body)
	}
	return string(body)
}

// ingest uploads data through the ingest form into coll on resource,
// with one metadata triplet name=value.
func (s *webSession) ingest(coll, name string, data []byte, resource, metaName, metaValue string) {
	s.t.Helper()
	var form bytes.Buffer
	mw := multipart.NewWriter(&form)
	part, _ := mw.CreateFormFile("file", name)
	part.Write(data)
	mw.WriteField("resource", resource)
	mw.WriteField("meta-name-0", metaName)
	mw.WriteField("meta-value-0", metaValue)
	mw.Close()
	resp, err := s.hc.Post(s.web+"/ingest?path="+coll, mw.FormDataContentType(), &form)
	if err != nil {
		s.t.Fatal(err)
	}
	s.page("ingest", resp)
}

// vaultArgs serves MySRB and keeps the bytes of resource vault in a
// directory of state, so they outlive the process.
func vaultArgs(t *testing.T, state string) []string {
	t.Helper()
	vault := filepath.Join(state, "vault")
	if err := os.MkdirAll(vault, 0o755); err != nil {
		t.Fatal(err)
	}
	return []string{"-web-addr", "127.0.0.1:0", "-resource", "vault=posixfs:" + vault}
}

// TestGatewayEndToEnd drives srbd's web interface through its forms: a
// collection and an ingest with metadata, SIGTERM, restart — the catalog
// saved on the signal and the compacted telemetry are both back.
func TestGatewayEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin := buildSrbd(t)
	state := t.TempDir()
	args := append(vaultArgs(t, state), "-admin-addr", "127.0.0.1:0", "-save-every", "1m",
		"-catalog", filepath.Join(state, "mcat.json"),
		"-telemetry-dir", filepath.Join(state, "telem"), "-rollup-interval", "50ms")

	d := startSrbd(t, bin, args...)
	s := login(t, d)
	s.post("/mkcoll", url.Values{"parent": {"/"}, "name": {"lab"}})
	s.ingest("/lab", "notes.txt", []byte("kept across a signal"), "vault", "instrument", "spectrometer")

	// The job table, read off the running binary; stay until the rollup
	// row has run, so there is a rollup to restore.
	var names []string
	deadline := time.Now().Add(10 * time.Second)
	for ran := false; !ran; time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the rollup row never ran: %v", names)
		}
		var rep wire.RepairStatusReply
		if err := json.Unmarshal([]byte(s.get(d.admin+"/repair")), &rep); err != nil {
			t.Fatal(err)
		}
		names = names[:0]
		for _, j := range rep.Status.Jobs {
			names = append(names, j.Name)
			ran = ran || j.Name == "rollup" && j.Runs > 0
		}
	}
	if got, want := strings.Join(names, " "), "catalog.save replica.sweep rollup heat.decay auth.sweep telemetry shard.gauges"; got != want {
		t.Errorf("/repair lists %q, want %q", got, want)
	}

	if err := d.stop(); err != nil {
		t.Errorf("srbd exit: %v", err)
	}
	rest := d.log()
	for _, step := range []string{"shutting down", "repair engine stopped", "catalog saved to ", "telemetry closed", "final stats: uptime="} {
		i := strings.Index(rest, step)
		if i < 0 {
			t.Fatalf("stop log lacks %q in order:\n%s", step, d.log())
		}
		rest = rest[i+len(step):]
	}
	// What the signal saved is a file the plain catalog reads.
	saved := mcat.New("admin", "local")
	if err := saved.LoadFile(filepath.Join(state, "mcat.json")); err != nil {
		t.Fatalf("catalog saved on SIGTERM: %v", err)
	}
	if _, err := saved.GetObject("/lab/notes.txt"); err != nil {
		t.Errorf("saved catalog lacks the ingested object: %v", err)
	}

	d2 := startSrbd(t, bin, args...)
	if !regexp.MustCompile(`telemetry restored: [1-9]\d* rollups`).MatchString(d2.log()) {
		t.Errorf("no rollups restored:\n%s", d2.log())
	}
	open := login(t, d2).get(d2.web + "/open?path=/lab/notes.txt")
	for _, want := range []string{"kept across a signal", "instrument", "spectrometer"} {
		if !strings.Contains(open, want) {
			t.Errorf("/open after restart lacks %q:\n%s", want, open)
		}
	}
}

// TestWebAndWireShareOneBroker: the web interface and the wire server
// of one srbd are one catalog. A web ingest is read back over the wire
// port, and a wire put is listed on the web's /browse.
func TestWebAndWireShareOneBroker(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	d := startSrbd(t, buildSrbd(t), vaultArgs(t, t.TempDir())...)
	s := login(t, d)
	s.post("/mkcoll", url.Values{"parent": {"/"}, "name": {"lab"}})
	s.ingest("/lab", "web.txt", []byte("ingested on the web"), "vault", "origin", "web")

	cl, err := client.Dial(d.addr, "admin", "adminpw")
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if st, err := cl.Stat("/lab/web.txt"); err != nil || st.Size != int64(len("ingested on the web")) {
		t.Fatalf("wire stat of the web ingest = %+v, %v", st, err)
	}
	if data, err := cl.Get("/lab/web.txt"); err != nil || string(data) != "ingested on the web" {
		t.Fatalf("wire get of the web ingest = %q, %v", data, err)
	}
	if _, err := cl.Put("/lab/wire.txt", []byte("put over the wire"), client.PutOpts{Resource: "disk1"}); err != nil {
		t.Fatal(err)
	}
	if page := s.get(d.web + "/browse?path=/lab"); !strings.Contains(page, "wire.txt") {
		t.Errorf("/browse lacks the wire put:\n%s", page)
	}
}

// TestWebIngestSurvivesKill: with -journal, what a web ingest committed
// is in the journal when srbd dies by SIGKILL, with no shutdown save,
// and the restarted daemon's /open shows its bytes and metadata.
func TestWebIngestSurvivesKill(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin := buildSrbd(t)
	state := t.TempDir()
	args := append(vaultArgs(t, state),
		"-catalog", filepath.Join(state, "mcat.json"), "-journal", filepath.Join(state, "mcat.journal"))

	d := startSrbd(t, bin, args...)
	s := login(t, d)
	s.post("/mkcoll", url.Values{"parent": {"/"}, "name": {"lab"}})
	s.ingest("/lab", "kept.txt", []byte("kept across a kill"), "vault", "instrument", "spectrometer")
	d.kill()
	if raw, _ := os.ReadFile(filepath.Join(state, "mcat.json")); bytes.Contains(raw, []byte("kept.txt")) {
		t.Fatal("a snapshot holds the ingest: the journal is not what kept it")
	}

	d2 := startSrbd(t, bin, args...)
	open := login(t, d2).get(d2.web + "/open?path=/lab/kept.txt")
	for _, want := range []string{"kept across a kill", "instrument", "spectrometer"} {
		if !strings.Contains(open, want) {
			t.Errorf("/open after SIGKILL and restart lacks %q:\n%s", want, open)
		}
	}
}

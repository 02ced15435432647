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
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"gosrb/internal/mcat"
	"gosrb/internal/wire"
)

// gateway is one running mysrbd with its log on disk.
type gateway struct {
	t       *testing.T
	cmd     *exec.Cmd
	logPath string
	web     string // http://host:port of the web interface
	admin   string // http://host:port of the admin endpoint
	hc      *http.Client
}

var (
	webRe   = regexp.MustCompile(`at (http://\S+)/mySRB\.html`)
	adminRe = regexp.MustCompile(`admin endpoint on (http://\S+)`)
)

// startGateway launches the binary over the state directory and logs
// in as the administrator through the web form.
func startGateway(t *testing.T, bin, state string) *gateway {
	t.Helper()
	g := &gateway{t: t, logPath: filepath.Join(t.TempDir(), "mysrbd.log")}
	logFile, err := os.Create(g.logPath)
	if err != nil {
		t.Fatal(err)
	}
	g.cmd = exec.Command(bin,
		"-addr", "127.0.0.1:0", "-admin-addr", "127.0.0.1:0", "-admin-pw", "adminpw",
		"-resource", "disk1=posixfs:"+filepath.Join(state, "vault"),
		"-catalog", filepath.Join(state, "mcat.json"),
		"-telemetry-dir", filepath.Join(state, "telem"), "-rollup-interval", "50ms")
	g.cmd.Stderr = logFile
	if err := g.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	logFile.Close()
	t.Cleanup(func() { g.cmd.Process.Kill() })
	for deadline := time.Now().Add(10 * time.Second); g.web == "" || g.admin == ""; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("mysrbd did not report its listeners:\n%s", g.log())
		}
		if m := webRe.FindStringSubmatch(g.log()); m != nil {
			g.web = m[1]
		}
		if m := adminRe.FindStringSubmatch(g.log()); m != nil {
			g.admin = m[1]
		}
	}
	jar, _ := cookiejar.New(nil)
	g.hc = &http.Client{Jar: jar}
	g.post("/login", url.Values{"user": {"admin"}, "password": {"adminpw"}})
	return g
}

func (g *gateway) log() string {
	raw, _ := os.ReadFile(g.logPath)
	return string(raw)
}

// post submits a web form and returns the page the redirect lands on.
func (g *gateway) post(path string, form url.Values) string {
	g.t.Helper()
	resp, err := g.hc.PostForm(g.web+path, form)
	if err != nil {
		g.t.Fatalf("POST %s: %v", path, err)
	}
	return g.page(path, resp)
}

func (g *gateway) get(url string) string {
	g.t.Helper()
	resp, err := g.hc.Get(url)
	if err != nil {
		g.t.Fatalf("GET %s: %v", url, err)
	}
	return g.page(url, resp)
}

func (g *gateway) page(what string, resp *http.Response) string {
	g.t.Helper()
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || strings.Contains(resp.Request.URL.RawQuery, "err=") {
		g.t.Fatalf("%s: status %d at %s\n%s", what, resp.StatusCode, resp.Request.URL, body)
	}
	return string(body)
}

// term sends SIGTERM and returns the log once the process has exited.
func (g *gateway) term() string {
	g.t.Helper()
	g.cmd.Process.Signal(syscall.SIGTERM)
	if err := g.cmd.Wait(); err != nil {
		g.t.Errorf("mysrbd exit: %v", err)
	}
	return g.log()
}

// TestGatewayEndToEnd drives the real binary through the web forms: a
// collection and an ingest with metadata, SIGTERM, restart — the catalog
// saved on the signal and the compacted telemetry are both back. Before
// mysrbd ran the shared lifecycle a signal saved nothing.
func TestGatewayEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin := filepath.Join(t.TempDir(), "mysrbd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	state := t.TempDir()
	if err := os.Mkdir(filepath.Join(state, "vault"), 0o755); err != nil {
		t.Fatal(err)
	}

	g := startGateway(t, bin, state)
	g.post("/mkcoll", url.Values{"parent": {"/"}, "name": {"lab"}})
	var form bytes.Buffer
	mw := multipart.NewWriter(&form)
	part, _ := mw.CreateFormFile("file", "notes.txt")
	part.Write([]byte("kept across a signal"))
	mw.WriteField("resource", "disk1")
	mw.WriteField("meta-name-0", "instrument")
	mw.WriteField("meta-value-0", "spectrometer")
	mw.Close()
	resp, err := g.hc.Post(g.web+"/ingest?path=/lab", mw.FormDataContentType(), &form)
	if err != nil {
		t.Fatal(err)
	}
	g.page("ingest", resp)

	// The shared job table, read off the running binary; stay until the
	// rollup row has run, so there is a rollup to restore.
	var names []string
	deadline := time.Now().Add(10 * time.Second)
	for ran := false; !ran; time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("the rollup row never ran: %v", names)
		}
		var rep wire.RepairStatusReply
		if err := json.Unmarshal([]byte(g.get(g.admin+"/repair")), &rep); err != nil {
			t.Fatal(err)
		}
		names = names[:0]
		for _, j := range rep.Status.Jobs {
			names = append(names, j.Name)
			ran = ran || j.Name == "rollup" && j.Runs > 0
		}
	}
	if got, want := strings.Join(names, " "), "catalog.save replica.sweep rollup heat.decay telemetry"; got != want {
		t.Errorf("/repair lists %q, want %q", got, want)
	}

	rest := g.term()
	for _, step := range []string{"shutting down", "repair engine stopped", "catalog saved to ", "telemetry closed", "final stats: uptime="} {
		i := strings.Index(rest, step)
		if i < 0 {
			t.Fatalf("stop log lacks %q in order:\n%s", step, g.log())
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

	g2 := startGateway(t, bin, state)
	if !regexp.MustCompile(`telemetry restored: [1-9]\d* rollups`).MatchString(g2.log()) {
		t.Errorf("no rollups restored:\n%s", g2.log())
	}
	open := g2.get(g2.web + "/open?path=/lab/notes.txt")
	for _, want := range []string{"kept across a signal", "instrument", "spectrometer"} {
		if !strings.Contains(open, want) {
			t.Errorf("/open after restart lacks %q:\n%s", want, open)
		}
	}
	g2.term()
}

package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"gosrb/internal/client"
	"gosrb/internal/wire"
)

// buildSrbd compiles the daemon once per test run.
func buildSrbd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "srbd")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// srbd is one running daemon: its wire address, the URLs of the web
// interface and the admin endpoint when its flags ask for them, and its
// log so far.
type srbd struct {
	t                *testing.T
	cmd              *exec.Cmd
	addr, web, admin string

	mu  sync.Mutex
	buf bytes.Buffer

	once sync.Once
	exit error
}

var (
	addrRe  = regexp.MustCompile(`listening on (\S+)`)
	webRe   = regexp.MustCompile(`at (http://\S+)/mySRB\.html`)
	adminRe = regexp.MustCompile(`admin endpoint on (http://\S+)`)
)

// startSrbd launches the daemon and waits until it has logged every
// listener its flags ask for. Cleanup stops it gracefully.
func startSrbd(t *testing.T, bin string, extraArgs ...string) *srbd {
	t.Helper()
	args := append([]string{
		"-addr", "127.0.0.1:0",
		"-name", "srb-e2e",
		"-admin-pw", "adminpw",
		"-user", "alice=alicepw",
		"-resource", "disk1=memfs:",
		"-save-every", "0",
	}, extraArgs...)
	d := &srbd{t: t, cmd: exec.Command(bin, args...)}
	d.cmd.Stderr = d
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.stop() })
	listeners := map[*string]*regexp.Regexp{&d.addr: addrRe}
	if slices.Contains(args, "-web-addr") {
		listeners[&d.web] = webRe
	}
	if slices.Contains(args, "-admin-addr") {
		listeners[&d.admin] = adminRe
	}
	for deadline := time.Now().Add(10 * time.Second); len(listeners) > 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			d.kill()
			t.Fatalf("srbd did not report its listeners:\n%s", d.log())
		}
		log := d.log()
		for at, re := range listeners {
			if m := re.FindStringSubmatch(log); m != nil {
				*at = m[1]
				delete(listeners, at)
			}
		}
	}
	return d
}

// Write collects the daemon's log.
func (d *srbd) Write(p []byte) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.buf.Write(p)
}

func (d *srbd) log() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.buf.String()
}

// stop sends SIGTERM and waits for the daemon to exit, killing it after
// 10 s, and returns how it exited. A second stop or kill does nothing.
func (d *srbd) stop() error {
	d.once.Do(func() {
		d.cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan error, 1)
		go func() { done <- d.cmd.Wait() }()
		select {
		case d.exit = <-done:
		case <-time.After(10 * time.Second):
			d.cmd.Process.Kill()
			d.exit = <-done
		}
	})
	return d.exit
}

// kill ends the daemon with SIGKILL: no stop sequence runs.
func (d *srbd) kill() {
	d.once.Do(func() {
		d.cmd.Process.Kill()
		d.exit = d.cmd.Wait()
	})
}

// TestDaemonEndToEnd drives the real binary: put/get over TCP, graceful
// shutdown with a snapshot + journal, and recovery on restart.
func TestDaemonEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin := buildSrbd(t)
	state := t.TempDir()
	catalog := filepath.Join(state, "mcat.json")
	journal := filepath.Join(state, "mcat.journal")

	d := startSrbd(t, bin, "-catalog", catalog, "-journal", journal)

	cl, err := client.Dial(d.addr, "alice", "alicepw")
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Mkdir("/home"); err == nil {
		t.Fatal("alice should not create top-level collections")
	}
	admin, err := client.Dial(d.addr, "admin", "adminpw")
	if err != nil {
		t.Fatal(err)
	}
	if err := admin.Mkdir("/home"); err != nil {
		t.Fatal(err)
	}
	if err := admin.Chmod("/home", "alice", "write"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Put("/home/persisted.txt", []byte("across restarts"), client.PutOpts{Resource: "disk1"}); err != nil {
		t.Fatal(err)
	}
	data, err := cl.Get("/home/persisted.txt")
	if err != nil || string(data) != "across restarts" {
		t.Fatalf("get = %q, %v", data, err)
	}
	// Audit over the wire (admin only).
	if _, err := cl.Audit("", "", "", 10); err == nil {
		t.Error("non-admin audit should fail")
	}
	recs, err := admin.Audit("alice", "", "", 10)
	if err != nil || len(recs) == 0 {
		t.Errorf("admin audit = %d records, %v", len(recs), err)
	}
	cl.Close()
	admin.Close()

	// Graceful shutdown snapshots the catalog.
	d.stop()
	if _, err := os.Stat(catalog); err != nil {
		t.Fatalf("no snapshot written: %v", err)
	}

	// Restart: the catalog (namespace + metadata + ACLs) survives. The
	// bytes do not — disk1 is an in-memory resource — which is exactly
	// what the catalog records as a now-unreachable replica.
	cl2, err := client.Dial(startSrbd(t, bin, "-catalog", catalog, "-journal", journal).addr, "alice", "alicepw")
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	st, err := cl2.Stat("/home/persisted.txt")
	if err != nil {
		t.Fatalf("catalog entry lost across restart: %v", err)
	}
	if st.Size != int64(len("across restarts")) {
		t.Errorf("stat after restart = %+v", st)
	}
	// ACLs survived too: alice can still create under /home.
	if err := cl2.Mkdir("/home/again"); err != nil {
		t.Errorf("ACL lost across restart: %v", err)
	}
}

// TestDaemonJournalRecovery kills the daemon without a graceful
// shutdown: the snapshot is stale, but the journal tail replays.
func TestDaemonJournalRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin := buildSrbd(t)
	state := t.TempDir()
	catalog := filepath.Join(state, "mcat.json")
	journal := filepath.Join(state, "mcat.journal")

	d := startSrbd(t, bin, "-catalog", catalog, "-journal", journal)
	admin, err := client.Dial(d.addr, "admin", "adminpw")
	if err != nil {
		t.Fatal(err)
	}
	if err := admin.Mkdir("/crash-survivor"); err != nil {
		t.Fatal(err)
	}
	admin.Close()
	// Give the journal writer a moment, then kill hard: no snapshot.
	time.Sleep(200 * time.Millisecond)
	d.kill()
	if _, err := os.Stat(catalog); err == nil {
		t.Log("note: snapshot exists (unexpected but harmless)")
	}
	raw, err := os.ReadFile(journal)
	if err != nil || !strings.Contains(string(raw), "crash-survivor") {
		t.Fatalf("journal missing the mutation: %v", err)
	}

	// Restart: the journal replays the lost mutation.
	admin2, err := client.Dial(startSrbd(t, bin, "-catalog", catalog, "-journal", journal).addr, "admin", "adminpw")
	if err != nil {
		t.Fatal(err)
	}
	defer admin2.Close()
	if _, err := admin2.Stat("/crash-survivor"); err != nil {
		t.Errorf("journal recovery failed: %v", err)
	}
}

// TestDaemonJobTableAndStopOrder reads the job table off the running
// binary's /repair — every periodic activity is a row there, once — and
// checks SIGTERM walks the stop sequence in its fixed order.
func TestDaemonJobTableAndStopOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes")
	}
	bin := buildSrbd(t)
	for _, c := range []struct {
		args []string
		jobs string
		stop []string
	}{
		{[]string{"-catalog", "mcat.json", "-telemetry-dir", "telem", "-peer", "srb9=127.0.0.1:1=zs", "-mcat-follow", "srb9"},
			"catalog.save replica.sweep rollup heat.decay auth.sweep telemetry shard.gauges shard.sync",
			[]string{"shutting down", "repair engine stopped", "catalog saved to mcat.json", "telemetry closed", "final stats: uptime="}},
		{[]string{"-catalog", "mcat.json", "-save-every", "0", "-rollup-interval", "0"},
			"replica.sweep heat.decay auth.sweep shard.gauges",
			[]string{"shutting down", "repair engine stopped", "catalog saved to mcat.json", "final stats: uptime="}},
	} {
		dir := t.TempDir()
		logPath := filepath.Join(dir, "srbd.log")
		logFile, err := os.Create(logPath)
		if err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-admin-addr", "127.0.0.1:0",
			"-admin-pw", "adminpw", "-resource", "disk1=memfs:"}, c.args...)...)
		cmd.Dir, cmd.Stderr = dir, logFile
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		logFile.Close()
		t.Cleanup(func() { cmd.Process.Kill() })

		adminRe := regexp.MustCompile(`admin endpoint on http://(\S+)`)
		var admin string
		for deadline := time.Now().Add(10 * time.Second); admin == ""; time.Sleep(10 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatal("srbd did not report its admin endpoint")
			}
			raw, _ := os.ReadFile(logPath)
			if m := adminRe.FindSubmatch(raw); m != nil {
				admin = string(m[1])
			}
		}
		resp, err := http.Get("http://" + admin + "/repair")
		if err != nil {
			t.Fatal(err)
		}
		var rep wire.RepairStatusReply
		err = json.NewDecoder(resp.Body).Decode(&rep)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, j := range rep.Status.Jobs {
			names = append(names, j.Name)
		}
		if got := strings.Join(names, " "); got != c.jobs {
			t.Errorf("%v: /repair lists %q, want %q", c.args, got, c.jobs)
		}

		cmd.Process.Signal(syscall.SIGTERM)
		if err := cmd.Wait(); err != nil {
			t.Errorf("%v: srbd exit: %v", c.args, err)
		}
		raw, _ := os.ReadFile(logPath)
		rest := string(raw)
		for _, step := range c.stop {
			i := strings.Index(rest, step)
			if i < 0 {
				t.Fatalf("%v: stop log lacks %q in order:\n%s", c.args, step, raw)
			}
			rest = rest[i+len(step):]
		}
		if _, err := os.Stat(filepath.Join(dir, "mcat.json")); err != nil {
			t.Errorf("%v: no snapshot on SIGTERM: %v", c.args, err)
		}
	}
}

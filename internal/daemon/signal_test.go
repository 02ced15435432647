package daemon

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// signalChildEnv, when set, makes TestSignalBeforeRun the daemon child
// instead of its parent; its value is the child's catalog directory.
const signalChildEnv = "GOSRB_SIGNAL_CHILD_DIR"

// TestSignalBeforeRun: a SIGTERM that lands after Start and before Run —
// the window in which a main announces its address — walks the stop
// sequence and exits 0, where the default action would kill the daemon
// unsaved. The daemon is this test binary run again as a child, so the
// signal reaches a process of its own: the child boots a runtime, starts
// it, says so, and calls Run only once the parent has signalled it and
// closed its stdin.
func TestSignalBeforeRun(t *testing.T) {
	if dir := os.Getenv(signalChildEnv); dir != "" {
		signalChild(dir)
		return
	}
	if testing.Short() {
		t.Skip("spawns a process")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestSignalBeforeRun$")
	cmd.Env = append(os.Environ(), signalChildEnv+"="+dir)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cmd.Process.Kill() })
	if line, err := bufio.NewReader(stdout).ReadString('\n'); err != nil || line != "started\n" {
		t.Fatalf("child said %q, %v before Run", line, err)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Let the signal land before the child may go on to Run.
	time.Sleep(50 * time.Millisecond)
	stdin.Close()
	if err := cmd.Wait(); err != nil {
		t.Fatalf("child exit: %v (a SIGTERM before Run must stop it cleanly)\n%s", err, stderr.String())
	}
	rest := stderr.String()
	for _, step := range []string{"shutting down", "repair engine stopped", "catalog saved to", "final stats: uptime="} {
		i := strings.Index(rest, step)
		if i < 0 {
			t.Fatalf("stop log lacks %q in order:\n%s", step, stderr.String())
		}
		rest = rest[i+len(step):]
	}
	if _, err := os.Stat(filepath.Join(dir, "mcat.json")); err != nil {
		t.Errorf("no snapshot on SIGTERM before Run: %v", err)
	}
}

// signalChild is the daemon side of TestSignalBeforeRun; it exits the
// process.
func signalChild(dir string) {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	cfg := Flags(fs)
	if err := fs.Parse([]string{"-catalog", filepath.Join(dir, "mcat.json")}); err != nil {
		log.Fatal(err)
	}
	cfg.Name, cfg.AdminPw = "srb1", "pw"
	cfg.Logf = log.New(os.Stderr, "", 0).Printf
	rt, err := New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	rt.Start()
	fmt.Println("started")
	io.Copy(io.Discard, os.Stdin)
	rt.Run()
	os.Exit(0)
}

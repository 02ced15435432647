package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

// TestFlagSet pins the daemon's flags — names, defaults and help strings
// — to testdata/flags.golden, so moving flag definitions between the
// daemon and internal/daemon cannot add, drop, rename or re-default one.
// A deliberate change regenerates the list with `go test -update`.
func TestFlagSet(t *testing.T) {
	t.Setenv("SRB_ADMIN_PW", "")
	fs := flag.NewFlagSet("daemon", flag.ContinueOnError)
	defineFlags(fs)
	var got strings.Builder
	fs.VisitAll(func(f *flag.Flag) {
		fmt.Fprintf(&got, "%s\t%q\t%s\n", f.Name, f.DefValue, f.Usage)
	})
	const path = "testdata/flags.golden"
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("flag set changed:\n%s\nwant:\n%s", got.String(), want)
	}
}

var update = flag.Bool("update", false, "rewrite testdata/flags.golden from the current flag set")

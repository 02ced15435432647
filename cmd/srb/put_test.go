package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gosrb/internal/client"
)

// bulkRig is a test server with alice dialled, a scratch directory for
// local files, and the count of bulkput round trips the server answered.
type bulkRig struct {
	t     *testing.T
	alice *client.Client
	dir   string
	// served is the number of bulkputs the server has answered so far.
	served func() int64
}

func newBulkRig(t *testing.T) *bulkRig {
	b, dial := testServer(t)
	return &bulkRig{t: t, alice: dial("alice"), dir: t.TempDir(),
		served: func() int64 { return b.Metrics().Snapshot().Ops["server.bulkput"].Count }}
}

// files writes one local file per size and returns their paths.
func (r *bulkRig) files(prefix string, sizes ...int) []string {
	paths := make([]string, len(sizes))
	for i, n := range sizes {
		paths[i] = filepath.Join(r.dir, fmt.Sprintf("%s%d.dat", prefix, i))
		if err := os.WriteFile(paths[i], []byte(strings.Repeat("x", n)), 0o644); err != nil {
			r.t.Fatal(err)
		}
	}
	return paths
}

// bulk runs put -bulk into coll and checks the round trips it reports,
// and that the server answered exactly that many.
func (r *bulkRig) bulk(coll string, locals []string, flags []string, trips int) {
	t := r.t
	t.Helper()
	if err := r.alice.Mkdir(coll); err != nil {
		t.Fatal(err)
	}
	before := r.served()
	args := append(append([]string{"-bulk", coll}, locals...), append(flags, "-resource", "disk1")...)
	out := capture(t, r.alice, "put", args...)
	want := fmt.Sprintf("bulk put: %d ok, 0 failed (%d round trips)\n", len(locals), trips)
	if !strings.HasSuffix(out, want) || strings.Count(out, "ingested ") != len(locals) {
		t.Errorf("put %v printed\n%s\nwant %d ingested lines and %q", args, out, len(locals), want)
	}
	if got := r.served() - before; got != int64(trips) {
		t.Errorf("put %v: the server answered %d bulkputs, want %d", args, got, trips)
	}
}

// TestPutBulkCountTrigger checks where -batch closes a batch of
// srb put -bulk: exactly -batch files close one batch, and nothing is
// left to send; one file more needs a second round trip.
func TestPutBulkCountTrigger(t *testing.T) {
	r := newBulkRig(t)
	r.bulk("/home/count3", r.files("c", 1, 1, 1), []string{"-batch", "3"}, 1)
	r.bulk("/home/count4", r.files("d", 1, 1, 1, 1), []string{"-batch", "3"}, 2)
}

// TestPutBulkBytesTrigger checks where -batch-bytes closes a batch of
// srb put -bulk: at the file that reaches it. 4+4 is 8 bytes, so the
// third file rides alone; 3+6 passes 8, so the file that passes it
// closes the batch, not the one after.
func TestPutBulkBytesTrigger(t *testing.T) {
	r := newBulkRig(t)
	r.bulk("/home/bytes444", r.files("e", 4, 4, 4), []string{"-batch-bytes", "8"}, 2)
	r.bulk("/home/bytes363", r.files("f", 3, 6, 3), []string{"-batch-bytes", "8"}, 2)
}

// TestPutBulk drives srb put -bulk end to end: its default batch size,
// what it prints per file, and which words put refuses. Each batch is
// one bulkput round trip, which the server counts as well.
func TestPutBulk(t *testing.T) {
	r := newBulkRig(t)
	alice, files, served := r.alice, r.files, r.served
	// The defaults, 64 files and 4 MiB, put a few small files in one batch.
	r.bulk("/home/defaults", files("g", 1, 2, 3), nil, 1)

	// A failing item is reported by name and fails the command; its
	// batch-mates are still ingested.
	if err := alice.Mkdir("/home/dup"); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Put("/home/dup/h1.dat", []byte("old"), client.PutOpts{Resource: "disk1"}); err != nil {
		t.Fatal(err)
	}
	before := served()
	out, stderr, err := runOut(t, alice, "put", append(append([]string{"-bulk", "/home/dup"}, files("h", 1, 1, 1)...), "-resource", "disk1")...)
	if want := "srb: put /home/dup/h1.dat: ingest /home/dup/h1.dat: already exists\n"; err == nil || stderr != want {
		t.Errorf("a bulk put with a failing item: err %v, stderr\n%s\nwant\n%s", err, stderr, want)
	}
	if !strings.HasSuffix(out, "bulk put: 2 ok, 1 failed (1 round trips)\n") || served()-before != 1 {
		t.Errorf("a bulk put with a failing item printed\n%s", out)
	}
	for _, p := range []string{"/home/dup/h0.dat", "/home/dup/h2.dat"} {
		if _, err := alice.Stat(p); err != nil {
			t.Errorf("%s beside the failing item: %v", p, err)
		}
	}

	// put and put -bulk parse one set of flags: an unknown one, a flag
	// with no value and a bulk flag on a plain put are refused by name,
	// before anything is sent. A missing argument is run's error too, not
	// an exit of the process.
	local := files("i", 1)[0]
	before = served()
	for _, c := range []struct {
		cmd  string
		args []string
		want string
	}{
		{"put", []string{"-bulk", "/home", local, "-batch-period", "1s"}, "-batch-period"},
		{"put", []string{"-bulk", "/home", local, "-bogus", "x"}, "-bogus"},
		{"put", []string{"-bulk", "/home", local, "-batch"}, "-batch"},
		{"put", []string{local, "/home/i.dat", "-resourc", "disk1"}, "-resourc"},
		{"put", []string{local, "/home/i.dat", "-resource"}, "-resource"},
		{"put", []string{local, "/home/i.dat", "-type", "-container", "c"}, "-type"},
		{"put", []string{local, "/home/i.dat", "-batch", "2"}, "-batch"},
		{"put", []string{local}, "missing argument: path"},
		{"pget", nil, "missing argument: path"},
	} {
		if _, _, err := runOut(t, alice, c.cmd, c.args...); err == nil || !strings.Contains(err.Error()+" ", c.want+" ") {
			t.Errorf("%s %v = %v, want an error naming %s", c.cmd, c.args, err, c.want)
		}
	}
	if served() != before {
		t.Error("a refused bulk put reached the server")
	}
	if _, err := alice.Stat("/home/i.dat"); err == nil {
		t.Error("a refused put ingested its file")
	}
}

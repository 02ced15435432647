package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"gosrb/internal/auth"
	"gosrb/internal/core"
	"gosrb/internal/durable"
	"gosrb/internal/mcat"
	"gosrb/internal/mcat/shard"
	"gosrb/internal/types"
)

// fullDisk is a journal writer that takes room bytes and then fails
// every write, keeping the partial line a real ENOSPC would leave.
type fullDisk struct {
	buf  bytes.Buffer
	room int
}

func (w *fullDisk) Write(p []byte) (int, error) {
	if len(p) <= w.room {
		w.room -= len(p)
		return w.buf.Write(p)
	}
	n, _ := w.buf.Write(p[:w.room])
	w.room = 0
	return n, errors.New("no space left on device")
}

// TestJournalAppendFailureLatches: when the catalog journal stops
// taking appends, the daemon stops acknowledging mutations it cannot
// make durable — the failure is counted, every later mutation is
// refused as read-only, reads keep working, /healthz degrades, and what
// the journal does hold replays to a prefix of what was acknowledged.
func TestJournalAppendFailureLatches(t *testing.T) {
	cat := shard.NewRouter(1, "admin", "local")
	b := core.New(cat, "srb1")
	cat.SetMetrics(b.Metrics())
	disk := &fullDisk{room: 2000}
	cat.AttachJournal(0, durable.NewJournal(disk))

	if err := cat.MkColl("/d", "admin"); err != nil {
		t.Fatal(err)
	}
	register := func(i int) error {
		_, err := cat.RegisterObject(&types.DataObject{
			Collection: "/d", Name: fmt.Sprintf("f%03d", i), Owner: "admin", DataType: "generic",
		})
		return err
	}
	appendErrs := b.Metrics().Counter("mcat.journal.append.errors")
	acked := 0
	for ; ; acked++ {
		if acked == 1000 {
			t.Fatal("2000 bytes of journal room never ran out")
		}
		err := register(acked)
		if appendErrs.Value() > 0 {
			// A register is logged before it is applied: the one whose
			// append failed is refused with the append's error.
			if err == nil || !strings.Contains(err.Error(), "no space left") {
				t.Fatalf("register %d whose append failed: err = %v, want the append's error", acked, err)
			}
			break
		}
		if err != nil {
			t.Fatalf("register %d before the journal filled: %v", acked, err)
		}
	}
	if acked < 3 {
		t.Fatalf("journal filled after %d registers; the prefix check needs a few", acked)
	}

	// Nothing after the failed append is acknowledged.
	err := register(acked)
	if !errors.Is(err, types.ErrReadOnly) || !strings.Contains(err.Error(), "no space left") {
		t.Errorf("mutation after the failed append: err = %v, want ErrReadOnly wrapping the cause", err)
	}
	if err := cat.AddMeta("/d/f000", types.MetaUser, types.AVU{Name: "k", Value: "v"}); !errors.Is(err, types.ErrReadOnly) {
		t.Errorf("addmeta after the failed append: err = %v, want ErrReadOnly", err)
	}
	if got := appendErrs.Value(); got != 1 {
		t.Errorf("mcat.journal.append.errors = %d, want 1 (refused mutations never reach the journal)", got)
	}
	if objs := cat.ObjectsIn("/d"); len(objs) != acked {
		t.Errorf("reads see %d objects, want the %d acknowledged", len(objs), acked)
	}
	if _, err := cat.GetObject("/d/f000"); err != nil {
		t.Errorf("read after the latch: %v", err)
	}

	// The truncated journal replays to exactly what was acknowledged, in
	// order, the torn tail skipped.
	replayed := mcat.New("admin", "local")
	st, err := replayed.ReplayCounted(bytes.NewReader(disk.buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if st.Corrupt > 1 {
		t.Errorf("replay skipped %d lines, want at most the one torn tail", st.Corrupt)
	}
	got := replayed.ObjectsIn("/d")
	if len(got) != acked {
		t.Errorf("replay restored %d objects, want the %d acknowledged", len(got), acked)
	}
	for i, o := range got {
		if want := fmt.Sprintf("f%03d", i); o.Name != want {
			t.Errorf("replayed object %d is %s, want %s: not a prefix", i, o.Name, want)
		}
	}

	// /healthz turns 503 and names the cause.
	srv := New(b, auth.New(), Proxy)
	t.Cleanup(func() { srv.Close() })
	addr := serveAdmin(t, srv)
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "journal append failing: no space left on device") {
		t.Errorf("/healthz = %d %q, want 503 with a journal append failing line", resp.StatusCode, body)
	}
}

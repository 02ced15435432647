package replica

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"gosrb/internal/chunk"
	"gosrb/internal/faultnet"
	"gosrb/internal/obs"
	"gosrb/internal/storage"
	"gosrb/internal/types"
)

// countingSource counts how many times it is read to EOF.
type countingSource struct {
	r      *bytes.Reader
	passes int
}

func (c *countingSource) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if err == io.EOF {
		c.passes++
	}
	return n, err
}

// brokenSource fails after n bytes, like a client that went away.
type brokenSource struct {
	n   int
	err error
}

func (b *brokenSource) Read(p []byte) (int, error) {
	if b.n == 0 {
		return 0, b.err
	}
	if len(p) > b.n {
		p = p[:b.n]
	}
	for i := range p {
		p[i] = 'x'
	}
	b.n -= len(p)
	return len(p), nil
}

// TestWriteFromOnePassAllReplicas: one read of the source lands on every
// replica, and the catalog's size and checksum are those of the bytes
// that went by.
func TestWriteFromOnePassAllReplicas(t *testing.T) {
	cat, dm, m := rig(t)
	for _, r := range []string{"r2", "r3"} {
		if _, err := m.Replicate("/d/f", r); err != nil {
			t.Fatal(err)
		}
	}
	data := bytes.Repeat([]byte("stream "), chunk.Size/3) // several chunks
	src := &countingSource{r: bytes.NewReader(data)}
	n, err := m.WriteFrom("/d/f", src)
	if err != nil || n != int64(len(data)) {
		t.Fatalf("WriteFrom = %d, %v", n, err)
	}
	if src.passes != 1 {
		t.Errorf("source read to EOF %d times, want 1", src.passes)
	}
	o, _ := cat.GetObject("/d/f")
	if o.Size != int64(len(data)) || o.Checksum != Checksum(data) {
		t.Errorf("catalog size %d checksum %s", o.Size, o.Checksum)
	}
	for _, r := range o.Replicas {
		got, err := storage.ReadAll(dm[r.Resource], r.PhysicalPath)
		if err != nil || !bytes.Equal(got, data) || r.Status != types.ReplicaClean || r.Checksum != o.Checksum {
			t.Errorf("replica on %s: %d bytes, status %v, %v", r.Resource, len(got), r.Status, err)
		}
	}
}

// TestWriteFromBrokenSourceKeepsOldContents: when the stream itself
// breaks, nothing is stored anywhere — the staged writes are discarded,
// every replica still holds (and is catalogued as holding) the previous
// contents.
func TestWriteFromBrokenSourceKeepsOldContents(t *testing.T) {
	cat, dm, m := rig(t)
	if _, err := m.Replicate("/d/f", "r2"); err != nil {
		t.Fatal(err)
	}
	before, _ := cat.GetObject("/d/f")
	gone := errors.New("client went away")
	if _, err := m.WriteFrom("/d/f", &brokenSource{n: chunk.Size + 10, err: gone}); !errors.Is(err, gone) {
		t.Fatalf("WriteFrom over a broken source = %v, want the source's error", err)
	}
	o, _ := cat.GetObject("/d/f")
	if o.Size != before.Size || o.Checksum != before.Checksum {
		t.Errorf("object rewritten by a broken stream: size %d", o.Size)
	}
	for _, r := range o.Replicas {
		got, err := storage.ReadAll(dm[r.Resource], r.PhysicalPath)
		if err != nil || string(got) != "replica payload" || r.Status != types.ReplicaClean {
			t.Errorf("replica on %s after a broken stream: %q, status %v, %v", r.Resource, got, r.Status, err)
		}
	}
}

// TestFanoutMemberFailureIsolated: a destination failing mid-stream
// drops out — aborted, flagged torn, no file left — while its sibling
// takes the whole stream; a destination that cannot even be opened is
// refused before a byte is read, leaving the caller free to pick another.
func TestFanoutMemberFailureIsolated(t *testing.T) {
	_, dm, m := rig(t)
	in := faultnet.New(3)
	dm["r2"] = in.WrapDriver("r2", dm["r2"])
	in.Target("r2").PartialWriteAfter(chunk.Size + 5)

	fo := m.NewFanout()
	if _, err := fo.Add("nosuch", "/vault/x"); err == nil {
		t.Fatal("Add on a resource with no driver succeeded")
	}
	good, err := fo.Add("r1", "/vault/x")
	if err != nil {
		t.Fatal(err)
	}
	bad, err := fo.Add("r2", "/vault/x")
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Repeat([]byte{7}, 3*chunk.Size)
	if err := fo.Copy(&countingSource{r: bytes.NewReader(data)}); err != nil {
		t.Fatalf("Copy with one failing member = %v; member failures are per-Dest", err)
	}
	if good.Err != nil || fo.Size() != int64(len(data)) || fo.Checksum() != Checksum(data) {
		t.Errorf("healthy member: err %v, size %d", good.Err, fo.Size())
	}
	if !errors.Is(bad.Err, faultnet.ErrInjected) || !bad.Torn {
		t.Errorf("failed member: err %v torn %v", bad.Err, bad.Torn)
	}
	if _, err := dm["r2"].Stat("/vault/x"); !errors.Is(err, types.ErrNotFound) {
		t.Errorf("failed member kept a partial file (stat err = %v)", err)
	}
	if got, err := storage.ReadAll(dm["r1"], "/vault/x"); err != nil || !bytes.Equal(got, data) {
		t.Errorf("healthy member holds %d bytes, %v", len(got), err)
	}
}

// TestReadHandleAccountsOnClose: the transfer observatory row is written
// when the handle closes, from the bytes actually read through it.
func TestReadHandleAccountsOnClose(t *testing.T) {
	_, _, m := rig(t)
	reg := obs.NewRegistry()
	m.SetMetrics(reg)
	f, rep, err := m.OpenRead("/d/f", "")
	if err != nil {
		t.Fatal(err)
	}
	part := make([]byte, 7)
	if _, err := io.ReadFull(f, part); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil { // accounting must not repeat
		t.Fatal(err)
	}
	if string(part) != "replica" || rep.Resource != "r1" {
		t.Errorf("read %q from %s", part, rep.Resource)
	}
	rows := reg.Peers().Snapshot()
	if len(rows) != 1 || rows[0].Resource != "r1" || rows[0].Ops != 1 || rows[0].Bytes != 7 {
		t.Errorf("observatory rows after a 7-byte read = %+v, want one r1 row of 7 bytes", rows)
	}
}

// closeCounter is a driver whose read handles count their Closes.
type closeCounter struct {
	storage.Driver
	closes int
}

func (c *closeCounter) Open(path string) (storage.ReadFile, error) {
	f, err := c.Driver.Open(path)
	if err != nil {
		return nil, err
	}
	return &countedClose{ReadFile: f, c: c}, nil
}

type countedClose struct {
	storage.ReadFile
	c *closeCounter
}

func (f *countedClose) Close() error {
	f.c.closes++
	return f.ReadFile.Close()
}

// TestReadHandleClosesOnce: a Handle closed twice closes its driver's
// handle once, for that handle may be lent (package lend) and a second
// Close would hand back what its pool has since lent to another reader.
func TestReadHandleClosesOnce(t *testing.T) {
	_, dm, m := rig(t)
	cc := &closeCounter{Driver: dm["r1"]}
	dm["r1"] = cc
	f, _, err := m.OpenRead("/d/f", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(f); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := f.Close(); err != nil {
			t.Fatalf("Close %d: %v", i+1, err)
		}
	}
	if cc.closes != 1 {
		t.Errorf("two Handle.Close calls closed the driver's handle %d times, want 1", cc.closes)
	}
}

// TestPhysPathFor: the strconv path is the one fmt.Sprintf wrote,
// "/vault/%03d/oid%d.r%d", negative IDs included, in one allocation.
func TestPhysPathFor(t *testing.T) {
	for _, id := range []types.ObjectID{0, 1, 9, 10, 99, 100, 511, 512, 513, 1023, 123456789, -1, -9, -10, -99, -100, -511, -512, -1000, 1 << 62} {
		for _, n := range []types.ReplicaNumber{0, 1, 12, -3} {
			o := &types.DataObject{ID: id}
			if got, want := PhysPathFor(o, n), fmt.Sprintf("/vault/%03d/oid%d.r%d", id%512, id, n); got != want {
				t.Errorf("PhysPathFor(%d, %d) = %q, want %q", id, n, got, want)
			}
		}
	}
	o := &types.DataObject{ID: 4242}
	if a := testing.AllocsPerRun(100, func() { _ = PhysPathFor(o, 1) }); a != 1 {
		t.Errorf("PhysPathFor: %.0f allocations, want 1", a)
	}
}

// TestFanoutChecksum: the digest is summed into the Fanout and encoded
// on the stack, so the checksum is one allocation, the string, and it is
// the hex SHA-256 of what the source yielded.
func TestFanoutChecksum(t *testing.T) {
	_, dm, m := rig(t)
	fo := m.NewFanout()
	// Three destinations: two live in the Fanout, the third on its own.
	var dests []*Dest
	for _, r := range []string{"r1", "r2", "r3"} {
		dst, err := fo.Add(r, "/vault/sum")
		if err != nil {
			t.Fatal(err)
		}
		dests = append(dests, dst)
	}
	data := []byte("fan-out payload")
	if err := fo.Copy(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
	for i, dst := range dests {
		if got, err := storage.ReadAll(dm[dst.Resource], "/vault/sum"); dst.Err != nil || err != nil || string(got) != string(data) {
			t.Errorf("destination %d on %s: %q, %v, %v", i, dst.Resource, got, dst.Err, err)
		}
	}
	if got, want := fo.Checksum(), Checksum(data); got != want {
		t.Fatalf("Checksum = %s, want %s", got, want)
	}
	if a := testing.AllocsPerRun(100, func() { _ = fo.Checksum() }); a != 1 {
		t.Errorf("Fanout.Checksum: %.0f allocations, want 1", a)
	}
}

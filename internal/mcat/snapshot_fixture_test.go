package mcat_test

import (
	"bytes"
	"os"
	"testing"
	"time"

	"gosrb/internal/mcat"
	"gosrb/internal/mcat/shard"
)

// The snapshot fixtures pin the snapshot formats. Both hold the catalog
// snapshotScript makes. testdata/snapshot.v1 was written by the JSON
// Save that version 2 replaced, and snapshot.v1.dump is what loading it
// answered there; it pins the legacy reader. testdata/snapshot.v2 is
// what Save writes now, and snapshot.v2.dump what loading it answers.

// snapshotScript makes a mutation of every entry kind, then a put.
func snapshotScript(t *testing.T, c shard.Catalog) {
	t.Helper()
	fixtureScript(t, c)
	putM31(t, c)
}

// snapshotLive is the catalog snapshotScript makes at the fixture epoch.
func snapshotLive(t *testing.T) *mcat.Catalog {
	t.Helper()
	live := mcat.New("admin", "sdsc")
	mcat.PinBirth(live, fixtureEpoch)
	live.SetClock(func() time.Time { return fixtureEpoch })
	snapshotScript(t, live)
	return live
}

// loadFixture loads a snapshot file into a fresh catalog and checks it
// answers as the dump beside the file, and as the catalog that wrote it.
func loadFixture(t *testing.T, file string) *mcat.Catalog {
	t.Helper()
	want, err := os.ReadFile(file + ".dump")
	if err != nil {
		t.Fatal(err)
	}
	c := mcat.New("admin", "sdsc")
	if err := c.LoadFile(file); err != nil {
		t.Fatal(err)
	}
	got := dump(c, fixtureID)
	if d := diffDump(got, splitDump(want)); d != "" {
		t.Errorf("%s loads to another dump than it did when written: %s", file, d)
	}
	if d := diffDump(got, dump(snapshotLive(t), fixtureID)); d != "" {
		t.Errorf("%s loads to another catalog than the script makes: %s", file, d)
	}
	return c
}

// A legacy snapshot loads to the catalog it was written from, and its
// next save is the current format's bytes for that catalog.
func TestSnapshotFixtureLegacy(t *testing.T) {
	c := loadFixture(t, "testdata/snapshot.v1")
	v2, err := os.ReadFile("testdata/snapshot.v2")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), v2) {
		t.Errorf("the legacy snapshot saves as other bytes than testdata/snapshot.v2:\n%s", buf.Bytes())
	}
}

// Save writes exactly the bytes of testdata/snapshot.v2 for the script's
// catalog, and they load back to it.
func TestSnapshotFixture(t *testing.T) {
	v2, err := os.ReadFile("testdata/snapshot.v2")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snapshotLive(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), v2) {
		t.Errorf("the script's catalog no longer saves as the bytes of testdata/snapshot.v2:\n%s", buf.Bytes())
	}
	loadFixture(t, "testdata/snapshot.v2")
}

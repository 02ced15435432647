package core

import (
	"errors"
	"fmt"
	"testing"

	"gosrb/internal/acl"
	"gosrb/internal/mcat"
	"gosrb/internal/metadata"
	"gosrb/internal/types"
	"gosrb/internal/workload"
)

func TestAddMetaRequiresOwnership(t *testing.T) {
	b := newBroker(t)
	b.Ingest("alice", IngestOpts{Path: "/home/f", Data: []byte("x"), Resource: "disk1"})
	b.Chmod("alice", "/home/f", "bob", acl.Write)
	// Write is not enough: the paper demands ownership for user/type meta.
	err := b.AddMeta("bob", "/home/f", types.MetaUser, types.AVU{Name: "k", Value: "v"})
	if !errors.Is(err, types.ErrPermission) {
		t.Errorf("write-level meta add: %v", err)
	}
	if err := b.AddMeta("alice", "/home/f", types.MetaUser, types.AVU{Name: "k", Value: "v"}); err != nil {
		t.Fatal(err)
	}
	// Only user/type classes are writable through AddMeta.
	if err := b.AddMeta("alice", "/home/f", types.MetaAnnotation, types.AVU{Name: "x"}); !errors.Is(err, types.ErrUnsupported) {
		t.Errorf("annotation via AddMeta: %v", err)
	}
}

func TestAnnotateNeedsOnlyRead(t *testing.T) {
	b := newBroker(t)
	b.Ingest("alice", IngestOpts{Path: "/home/f", Data: []byte("x"), Resource: "disk1"})
	b.Chmod("alice", "/home/f", "bob", acl.Read)
	if err := b.Annotate("bob", "/home/f", types.Annotation{Text: "great data!", Kind: "rating"}); err != nil {
		t.Fatalf("read-level annotate: %v", err)
	}
	anns, err := b.Annotations("alice", "/home/f")
	if err != nil || len(anns) != 1 || anns[0].Author != "bob" {
		t.Errorf("annotations = %+v, %v", anns, err)
	}
	// No grant at all: denied.
	b.Cat.AddUser(types.User{Name: "carol", Domain: "x"})
	if err := b.Annotate("carol", "/home/f", types.Annotation{Text: "hi"}); !errors.Is(err, types.ErrPermission) {
		t.Errorf("ungranted annotate: %v", err)
	}
}

func TestSystemMetaView(t *testing.T) {
	b := newBroker(t)
	b.Ingest("alice", IngestOpts{Path: "/home/f", Data: []byte("12345"), Resource: "mirror"})
	avus, err := b.GetMeta("alice", "/home/f", types.MetaSystem)
	if err != nil {
		t.Fatal(err)
	}
	m := map[string]string{}
	for _, a := range avus {
		m[a.Name] = a.Value
	}
	if m["sys:size"] != "5" || m["sys:owner"] != "alice" || m["sys:replicas"] != "2" {
		t.Errorf("system meta = %v", m)
	}
	// Collections have system metadata too.
	avus, err = b.GetMeta("alice", "/home", types.MetaSystem)
	if err != nil || len(avus) == 0 {
		t.Errorf("collection system meta = %+v, %v", avus, err)
	}
}

func TestFileBasedMetadata(t *testing.T) {
	b := newBroker(t)
	b.Ingest("alice", IngestOpts{Path: "/home/f", Data: []byte("data"), Resource: "disk1"})
	triplets := metadata.FormatTriplets([]types.AVU{
		{Name: "instrument", Value: "2MASS camera"},
		{Name: "exposure", Value: "7.8", Units: "seconds"},
	})
	b.Ingest("alice", IngestOpts{Path: "/home/f.meta", Data: triplets, Resource: "disk1"})
	if err := b.AttachFileMeta("alice", "/home/f", "/home/f.meta"); err != nil {
		t.Fatal(err)
	}
	avus, err := b.GetMeta("alice", "/home/f", types.MetaFile)
	if err != nil || len(avus) != 2 {
		t.Fatalf("file meta = %+v, %v", avus, err)
	}
	if avus[1].Units != "seconds" {
		t.Errorf("units = %+v", avus[1])
	}
	// File-based metadata is view-only: it must not answer queries.
	hits, _ := b.Query("alice", mcat.Query{Scope: "/", Conds: []mcat.Condition{{Attr: "instrument", Op: "like", Value: "%2mass%"}}})
	if len(hits) != 0 {
		t.Errorf("file meta must not be queryable: %v", hits)
	}
}

func TestExtractMetaFITS(t *testing.T) {
	b := newBroker(t)
	g := workload.NewGen(1)
	spec := g.SkySurvey("/home", 1, 1)[0]
	hdr := g.FITSHeader(spec)
	b.Mkdir("alice", spec.Collection)
	b.Ingest("alice", IngestOpts{Path: spec.Path(), Data: hdr, Resource: "disk1", DataType: "fits image"})
	n, err := b.ExtractMeta("alice", spec.Path(), "fits-cards", "")
	if err != nil || n == 0 {
		t.Fatalf("ExtractMeta = %d, %v", n, err)
	}
	avus, _ := b.GetMeta("alice", spec.Path(), types.MetaType)
	found := false
	for _, a := range avus {
		if a.Name == "SURVEY" {
			found = true
		}
	}
	if !found {
		t.Errorf("extracted meta = %+v", avus)
	}
	// Extracted metadata is queryable.
	hits, _ := b.Query("alice", mcat.Query{Scope: "/", Conds: []mcat.Condition{{Attr: "SIMPLE", Op: "=", Value: "T"}}})
	if len(hits) != 1 {
		t.Errorf("query extracted = %v", hits)
	}
}

func TestExtractFromSecondObject(t *testing.T) {
	b := newBroker(t)
	// DICOM-style: the image and a companion header file.
	b.Ingest("alice", IngestOpts{Path: "/home/scan.img", Data: []byte("binary image"), Resource: "disk1", DataType: "dicom image"})
	b.Ingest("alice", IngestOpts{Path: "/home/scan.hdr", Data: []byte("(0010,0010) DOE^JANE\n(0008,0060) CT\n"), Resource: "disk1"})
	n, err := b.ExtractMeta("alice", "/home/scan.img", "dicom-companion", "/home/scan.hdr")
	if err != nil || n != 2 {
		t.Fatalf("second-object extract = %d, %v", n, err)
	}
	// Omitting the companion fails for a SecondObject method.
	if _, err := b.ExtractMeta("alice", "/home/scan.img", "dicom-companion", ""); !errors.Is(err, types.ErrInvalid) {
		t.Errorf("missing companion: %v", err)
	}
}

func TestQueryFiltersByPermission(t *testing.T) {
	b := newBroker(t)
	b.Ingest("alice", IngestOpts{Path: "/home/mine", Data: nil, Resource: "disk1",
		Meta: []types.AVU{{Name: "tag", Value: "x"}}})
	b.Ingest("alice", IngestOpts{Path: "/home/shared", Data: nil, Resource: "disk1",
		Meta: []types.AVU{{Name: "tag", Value: "x"}}})
	b.Chmod("alice", "/home/shared", "bob", acl.Read)
	hits, err := b.Query("bob", mcat.Query{Scope: "/", Conds: []mcat.Condition{{Attr: "tag", Op: "=", Value: "x"}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].Path != "/home/shared" {
		t.Errorf("filtered hits = %+v", hits)
	}
	// Admin sees both.
	hits, _ = b.Query("admin", mcat.Query{Scope: "/", Conds: []mcat.Condition{{Attr: "tag", Op: "=", Value: "x"}}})
	if len(hits) != 2 {
		t.Errorf("admin hits = %+v", hits)
	}
}

// TestQueryLimitCountsReadableHits: a limit counts the hits the caller
// may read. bob may read only the last two of four matches, so Limit 2
// must give him those two, not the first two cut and then filtered away.
func TestQueryLimitCountsReadableHits(t *testing.T) {
	b := newBroker(t)
	for _, p := range []string{"/home/a", "/home/b", "/home/c", "/home/d"} {
		if _, err := b.Ingest("alice", IngestOpts{Path: p, Resource: "disk1",
			Meta: []types.AVU{{Name: "tag", Value: "x"}}}); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []string{"/home/c", "/home/d"} {
		if err := b.Chmod("alice", p, "bob", acl.Read); err != nil {
			t.Fatal(err)
		}
	}
	q := mcat.Query{Scope: "/home", Conds: []mcat.Condition{{Attr: "tag", Op: "=", Value: "x"}}, Limit: 2}
	paths := func(hits []mcat.Hit) []string {
		var out []string
		for _, h := range hits {
			out = append(out, h.Path)
		}
		return out
	}
	for user, want := range map[string]string{"bob": "[/home/c /home/d]", "alice": "[/home/a /home/b]"} {
		hits, err := b.Query(user, q)
		if err != nil || fmt.Sprint(paths(hits)) != want {
			t.Errorf("Query as %s, Limit 2 = %v, %v; want %s", user, paths(hits), err, want)
		}
		hits, _, err = b.QueryPartial(user, q)
		if err != nil || fmt.Sprint(paths(hits)) != want {
			t.Errorf("QueryPartial as %s, Limit 2 = %v, %v; want %s", user, paths(hits), err, want)
		}
	}
}

func TestCopyMetaBetweenObjects(t *testing.T) {
	b := newBroker(t)
	b.Ingest("alice", IngestOpts{Path: "/home/a", Data: nil, Resource: "disk1",
		Meta: []types.AVU{{Name: "k", Value: "v"}}})
	b.Ingest("alice", IngestOpts{Path: "/home/b", Data: nil, Resource: "disk1"})
	if err := b.CopyMeta("alice", "/home/a", "/home/b"); err != nil {
		t.Fatal(err)
	}
	avus, _ := b.GetMeta("alice", "/home/b", types.MetaUser)
	if len(avus) != 1 {
		t.Errorf("copied meta = %+v", avus)
	}
}

func TestUpdateAndDeleteMeta(t *testing.T) {
	b := newBroker(t)
	b.Ingest("alice", IngestOpts{Path: "/home/f", Data: nil, Resource: "disk1",
		Meta: []types.AVU{{Name: "color", Value: "red"}}})
	n, err := b.UpdateMeta("alice", "/home/f", types.MetaUser, "color", "", types.AVU{Name: "color", Value: "blue"})
	if err != nil || n != 1 {
		t.Fatalf("UpdateMeta = %d, %v", n, err)
	}
	if _, err := b.UpdateMeta("bob", "/home/f", types.MetaUser, "color", "", types.AVU{}); !errors.Is(err, types.ErrPermission) {
		t.Errorf("foreign update: %v", err)
	}
	n, err = b.DeleteMeta("alice", "/home/f", types.MetaUser, "color", "")
	if err != nil || n != 1 {
		t.Fatalf("DeleteMeta = %d, %v", n, err)
	}
}

func TestStructuralNeedsCurate(t *testing.T) {
	b := newBroker(t)
	b.Mkdir("alice", "/home/coll")
	// alice created it, so she curates it.
	if err := b.SetStructural("alice", "/home/coll", types.StructuralAttr{Name: "species", Mandatory: true}); err != nil {
		t.Fatal(err)
	}
	if err := b.SetStructural("bob", "/home/coll", types.StructuralAttr{Name: "x"}); !errors.Is(err, types.ErrPermission) {
		t.Errorf("foreign structural: %v", err)
	}
	attrs, err := b.Structural("alice", "/home/coll")
	if err != nil || len(attrs) != 1 {
		t.Errorf("Structural = %+v, %v", attrs, err)
	}
}

func TestQueryAttrNamesDropdown(t *testing.T) {
	b := newBroker(t)
	b.Ingest("alice", IngestOpts{Path: "/home/f", Data: nil, Resource: "disk1",
		Meta: []types.AVU{{Name: "survey", Value: "2mass"}}})
	names := b.QueryAttrNames("alice", "/home")
	if len(names) != 1 || names[0] != "survey" {
		t.Errorf("attr names = %v", names)
	}
}

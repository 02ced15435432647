// Digital library: a scaled-down 2-Micron All Sky Survey collection
// (the paper's 10 TB / 5-million-file exemplar). Small FITS images are
// aggregated into containers on a simulated tape archive, described
// with Dublin Core and extracted header metadata, and discovered
// through the query interface. A registered SQL object renders a
// survey report with the built-in HTMLREL template.
//
//	go run ./examples/digitallibrary
package main

import (
	"fmt"
	"log"
	"strings"

	"gosrb/internal/core"
	"gosrb/internal/mcat"
	"gosrb/internal/storage/archivefs"
	"gosrb/internal/storage/dbfs"
	"gosrb/internal/storage/memfs"
	"gosrb/internal/types"
	"gosrb/internal/workload"
	"time"
)

func main() {
	cat := mcat.New("admin", "sdsc")
	broker := core.New(cat, "srb1")

	// Resources: a disk cache, a tape archive (HPSS stand-in, 20 ms
	// stage latency) and a database for the survey catalog tables.
	check(broker.AddPhysicalResource("admin", "cache", types.ClassCache, "memfs", memfs.New()))
	arch := archivefs.New(archivefs.Config{StageLatency: 20 * time.Millisecond})
	check(broker.AddPhysicalResource("admin", "hpss", types.ClassArchive, "archivefs", arch))
	db := dbfs.New()
	check(broker.AddPhysicalResource("admin", "dblib", types.ClassDatabase, "dbfs", db))

	check(cat.AddUser(types.User{Name: "curator", Domain: "sdsc"}))
	check(cat.MkColl("/2mass", "curator"))

	// The curator requires survey metadata on everything ingested.
	check(cat.SetStructural("/2mass", types.StructuralAttr{
		Name: "survey", Mandatory: true, Comment: "source survey name",
	}))

	// Containers aggregate the small images for the archive (paper §2).
	_, err := broker.CreateContainer("curator", "/2mass/container-0", "hpss")
	check(err)

	// Bulk-ingest a scaled-down plate of images.
	gen := workload.NewGen(2002)
	specs := gen.SkySurvey("/2mass", 200, 4)
	for i := 0; i < 4; i++ {
		check(cat.MkColl(fmt.Sprintf("/2mass/plate%03d", i), "curator"))
	}
	for _, s := range specs {
		header := gen.FITSHeader(s)
		if _, err := broker.Ingest("curator", core.IngestOpts{
			Path:      s.Path(),
			Data:      header,
			Container: "/2mass/container-0",
			DataType:  "fits image",
			Meta:      s.Meta,
		}); err != nil {
			log.Fatalf("ingest %s: %v", s.Path(), err)
		}
	}
	fmt.Printf("ingested %d images into /2mass (container-aggregated on hpss)\n", len(specs))

	// Dublin Core on the collection; FITS-card extraction on a sample.
	for _, avu := range workload.DublinCore(
		"2MASS image library (demo)", "IPAC / UMass", "infrared astronomy",
		"Scaled-down Two Micron All Sky Survey image collection") {
		check(cat.AddMeta("/2mass", types.MetaType, avu))
	}
	sample := specs[0].Path()
	n, err := broker.ExtractMeta("curator", sample, "fits-cards", "")
	check(err)
	fmt.Printf("extracted %d header triplets from %s\n", n, sample)

	// Discovery: conjunctive attribute queries across the hierarchy.
	hits, err := broker.Query("curator", mcat.Query{
		Scope: "/2mass",
		Conds: []mcat.Condition{
			{Attr: "survey", Op: "=", Value: "2mass"},
			{Attr: "band", Op: "=", Value: "J"},
			{Attr: "mag", Op: "<", Value: "8"},
		},
		Select: []string{"mag", "band"},
	})
	check(err)
	fmt.Printf("bright J-band 2MASS images: %d\n", len(hits))
	for i, h := range hits {
		if i == 3 {
			fmt.Println("  ...")
			break
		}
		fmt.Printf("  %s mag=%v\n", h.Path, h.Values[0]) // column 0: Select[0], "mag"
	}

	// A registered SQL object over the survey database: executed at
	// retrieval time, rendered by the HTMLREL template (paper §5).
	_, err = db.Database().Exec("CREATE TABLE plates (plate, images, seeing)")
	check(err)
	for i := 0; i < 4; i++ {
		_, err = db.Database().Exec(fmt.Sprintf(
			"INSERT INTO plates VALUES ('plate%03d', %d, %0.1f)", i, 50, 1.0+float64(i)/10))
		check(err)
	}
	_, err = broker.RegisterSQL("curator", "/2mass/plate-report", types.SQLSpec{
		Resource: "dblib",
		Query:    "SELECT plate, images, seeing FROM plates ORDER BY plate",
		Template: "HTMLREL",
	})
	check(err)
	report, err := broker.Get("curator", "/2mass/plate-report")
	check(err)
	fmt.Printf("plate report (first line): %s\n", strings.SplitN(string(report), "\n", 2)[0])

	// Archive behaviour: the container segment staged once serves every
	// member without further tape mounts.
	before := arch.Stats()
	for _, s := range specs[:20] {
		if _, err := broker.Get("curator", s.Path()); err != nil {
			log.Fatal(err)
		}
	}
	after := arch.Stats()
	fmt.Printf("20 member reads: %d tape stages, %d staging-cache hits\n",
		after.Stages-before.Stages, after.CacheHits-before.CacheHits)

	st := cat.Stats()
	fmt.Printf("library: %d objects, %d collections, %d metadata triplets\n",
		st.Objects, st.Collections, st.MetaEntries)
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// Persistent archive: the paper's preservation story. Data is
// replicated for fault tolerance, survives a storage outage, carries
// versions through checkout/checkin, and migrates to a new storage
// generation "without changing the name by which the data is
// discovered and accessed" (§3.6).
//
//	go run ./examples/persistentarchive
package main

import (
	"errors"
	"fmt"
	"log"

	"gosrb/internal/audit"
	"gosrb/internal/core"
	"gosrb/internal/mcat"
	"gosrb/internal/storage/memfs"
	"gosrb/internal/types"
)

func main() {
	cat := mcat.New("admin", "nara")
	broker := core.New(cat, "srb1")

	// Two storage generations plus the one that will replace them.
	check(broker.AddPhysicalResource("admin", "gen1-disk", types.ClassFileSystem, "memfs", memfs.New()))
	check(broker.AddPhysicalResource("admin", "gen1-tape", types.ClassArchive, "memfs", memfs.New()))
	check(broker.AddLogicalResource("admin", "preserve", []string{"gen1-disk", "gen1-tape"}))

	check(cat.AddUser(types.User{Name: "archivist", Domain: "nara"}))
	check(cat.MkColl("/archive", "archivist"))
	check(cat.MkColl("/archive/1999", "archivist"))

	// Ingest into the logical resource: synchronous replication means
	// every record immediately exists on both storage systems.
	for i := 0; i < 5; i++ {
		path := fmt.Sprintf("/archive/1999/record%02d", i)
		_, err := broker.Ingest("archivist", core.IngestOpts{
			Path:     path,
			Data:     []byte(fmt.Sprintf("record %d, accessioned 1999", i)),
			Resource: "preserve",
			Meta:     []types.AVU{{Name: "accession", Value: "1999"}},
		})
		check(err)
	}
	o, _ := cat.GetObject("/archive/1999/record00")
	fmt.Printf("each record has %d replicas (disk + tape), synchronously written\n", len(o.Replicas))

	// Disaster: the disk generation fails. Access continues from tape —
	// "the system automatically redirecting access to a replica" (§3.4).
	check(cat.SetResourceOnline("gen1-disk", false))
	data, err := broker.Get("archivist", "/archive/1999/record00")
	check(err)
	fmt.Printf("disk offline, read from tape replica: %q\n", data)
	check(cat.SetResourceOnline("gen1-disk", true))

	// Version control: checkout/checkin preserves earlier states.
	check(broker.Checkout("archivist", "/archive/1999/record00"))
	check(broker.Checkin("archivist", "/archive/1999/record00",
		[]byte("record 0, accessioned 1999 (redacted 2002)"), "privacy redaction"))
	vers, err := broker.Versions("archivist", "/archive/1999/record00")
	check(err)
	v1, err := broker.GetVersion("archivist", "/archive/1999/record00", 1)
	check(err)
	fmt.Printf("after redaction: %d preserved version(s); v1 = %q\n", len(vers), v1)

	// Technology refresh: a new storage generation arrives. Replicas
	// move physically; logical names never change.
	check(broker.AddPhysicalResource("admin", "gen2-disk", types.ClassFileSystem, "memfs", memfs.New()))
	for i := 0; i < 5; i++ {
		path := fmt.Sprintf("/archive/1999/record%02d", i)
		obj, err := cat.GetObject(path)
		check(err)
		// Move the disk replica to the new generation.
		for _, rep := range obj.Replicas {
			if rep.Resource == "gen1-disk" {
				check(broker.PhysicalMove("archivist", path, rep.Number, "gen2-disk"))
			}
		}
	}
	// The old disk can now be retired; names and metadata are intact.
	check(cat.SetResourceOnline("gen1-disk", false))
	data, err = broker.Get("archivist", "/archive/1999/record01")
	check(err)
	fmt.Printf("after migration to gen2-disk, same name still reads: %q\n", data)
	hits, err := broker.Query("archivist", mcat.Query{Scope: "/archive",
		Conds: []mcat.Condition{{Attr: "accession", Op: "=", Value: "1999"}}})
	check(err)
	fmt.Printf("discovery unchanged: %d records found by accession year\n", len(hits))

	// A collection-level move also preserves everything (recursive
	// movement command, §3.6).
	check(cat.MkColl("/archive/accessions", "archivist"))
	check(broker.Move("archivist", "/archive/1999", "/archive/accessions/1999"))
	if _, err := broker.Get("archivist", "/archive/accessions/1999/record00"); err != nil {
		log.Fatal(err)
	}
	fmt.Println("collection reorganised; objects, metadata and versions followed")

	// The audit trail recorded the whole preservation history.
	recs := broker.Audit.Query(audit.Filter{Op: "physmove"})
	fmt.Printf("audit: %d physical moves recorded\n", len(recs))
	if _, err := broker.Get("intruder", "/archive/accessions/1999/record00"); errors.Is(err, types.ErrPermission) {
		denied := broker.Audit.Query(audit.Filter{User: "intruder"})
		fmt.Printf("audit: %d denied access attempt(s) by 'intruder'\n", len(denied))
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

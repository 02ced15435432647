// Quickstart: the smallest useful data grid. An in-process broker with
// one storage resource; create a collection, ingest a file with
// metadata, read it back, annotate it, and find it again by query.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"gosrb/internal/core"
	"gosrb/internal/mcat"
	"gosrb/internal/storage/memfs"
	"gosrb/internal/types"
)

func main() {
	// The MCAT catalog is the single source of truth; the broker
	// enforces SRB semantics over it.
	cat := mcat.New("admin", "demo")
	broker := core.New(cat, "srb1")

	// One physical resource backed by an in-memory store. Real
	// deployments use posixfs (a directory) or archivefs (a simulated
	// tape archive).
	check(broker.AddPhysicalResource("admin", "disk1", types.ClassFileSystem, "memfs", memfs.New()))

	// A user and her home collection.
	check(cat.AddUser(types.User{Name: "alice", Domain: "demo"}))
	check(cat.MkColl("/home", "admin"))
	check(cat.MkColl("/home/alice", "alice"))

	// Ingest a file with user metadata attached at ingestion time.
	obj, err := broker.Ingest("alice", core.IngestOpts{
		Path:     "/home/alice/notes.txt",
		Data:     []byte("The SRB brokers storage so clients do not have to."),
		Resource: "disk1",
		DataType: "ascii text",
		Meta: []types.AVU{
			{Name: "topic", Value: "data grids"},
			{Name: "year", Value: "2002"},
		},
	})
	check(err)
	fmt.Printf("ingested %s (%d bytes, object id %d)\n", obj.Path(), obj.Size, obj.ID)

	// Read it back through the logical name.
	data, err := broker.Get("alice", "/home/alice/notes.txt")
	check(err)
	fmt.Printf("contents: %s\n", data)

	// Any reader may annotate (the paper's commentary metadata).
	check(broker.Annotate("alice", "/home/alice/notes.txt", types.Annotation{
		Kind: "comment", Text: "worth keeping",
	}))

	// Discover by attribute, not by name: the MCAT query engine.
	hits, err := broker.Query("alice", mcat.Query{
		Scope: "/home",
		Conds: []mcat.Condition{
			{Attr: "topic", Op: "=", Value: "data grids"},
			{Attr: "year", Op: ">=", Value: "2000"},
		},
		Select: []string{"sys:size", "topic"},
	})
	check(err)
	// A hit carries one column of values per Select attribute, in order.
	for _, h := range hits {
		fmt.Printf("query hit: %s  size=%v topic=%v\n", h.Path, h.Values[0], h.Values[1])
	}

	// System metadata view.
	sys, err := broker.GetMeta("alice", "/home/alice/notes.txt", types.MetaSystem)
	check(err)
	fmt.Println("system metadata:")
	for _, a := range sys {
		fmt.Printf("  %-14s %s\n", a.Name, a.Value)
	}

	// Everything was audited.
	fmt.Printf("audit records so far: %d\n", broker.Audit.Len())
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

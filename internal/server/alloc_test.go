package server

import (
	"testing"

	"gosrb/internal/client"
	stg "gosrb/internal/storage"
	"gosrb/internal/storage/memfs"
)

// TestRoundTripAllocBudget holds what one small request costs in heap
// objects, client and server together, over loopback: a Stat and a
// 5-byte Get. The budgets are absolute and measured — what this test
// read once a Get looked its object up once and opened it through one
// handle, and a Stat looked up the object before the collection; before
// that it read 22 and 25 (and 32 and 38 before the per-RPC envelope
// came to one allocation per request). One more object per request on
// the path every RPC takes fails here by name.
func TestRoundTripAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	_, _, addr := bootOne(t, map[string]stg.Driver{"d1": memfs.New()}, nil, "")
	cl := dialT(t, addr)
	if _, err := cl.Put("/home/x", []byte("hello"), client.PutOpts{Resource: "d1"}); err != nil {
		t.Fatal(err)
	}
	stat := func() {
		if _, err := cl.Stat("/home/x"); err != nil {
			t.Fatal(err)
		}
	}
	get := func() {
		if data, err := cl.Get("/home/x"); err != nil || string(data) != "hello" {
			t.Fatalf("get = %q, %v", data, err)
		}
	}
	// Warm-up: the pools, the registry's op and phase rows, the usage row.
	for i := 0; i < 200; i++ {
		stat()
		get()
	}
	for _, c := range []struct {
		name   string
		op     func()
		budget float64
	}{
		{"stat", stat, 19},
		{"get", get, 19},
	} {
		if got := testing.AllocsPerRun(2000, c.op); got > c.budget {
			t.Errorf("%s round trip: %.0f heap objects, budget %.0f", c.name, got, c.budget)
		} else {
			t.Logf("%s round trip: %.0f heap objects (budget %.0f)", c.name, got, c.budget)
		}
	}
}

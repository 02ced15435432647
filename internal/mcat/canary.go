//go:build rowcanary

package mcat

import (
	"fmt"
	"hash/fnv"
	"sync"

	"gosrb/internal/types"
)

// rowCanary is the row canary, built with -tags rowcanary (make race
// runs the whole suite so). A committed object row is shared with every
// reader and never changes (see commitLocked); the canary fingerprints
// each row the catalog stores and panics, naming the path, when a row it
// hands out, replaces or deletes no longer matches its fingerprint:
// something wrote into a shared row instead of into a Clone. Without the
// tag, canary_off.go's empty methods cost nothing.
type rowCanary struct {
	mu   sync.Mutex
	sums map[*types.DataObject]uint64
}

// fingerprint hashes everything o holds, through its slices and
// pointers, as its journal line's table (objectFields) writes it.
func fingerprint(o *types.DataObject) uint64 {
	var a appender
	objectFields.write(&a, o)
	if a.err != nil {
		panic(fmt.Sprintf("mcat: row canary: %v", a.err))
	}
	h := fnv.New64a()
	h.Write(a.b)
	return h.Sum64()
}

// store records the fingerprint of o, a row the catalog now holds.
func (k *rowCanary) store(o *types.DataObject) {
	sum := fingerprint(o)
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.sums == nil {
		k.sums = make(map[*types.DataObject]uint64)
	}
	k.sums[o] = sum
}

// check panics when o, the row stored at path, is not as it was stored.
// A nil canary, a legacy snapshot's scratch catalog's, checks nothing.
func (k *rowCanary) check(path string, o *types.DataObject) {
	if k == nil {
		return
	}
	k.mu.Lock()
	want, ok := k.sums[o]
	k.mu.Unlock()
	switch {
	case !ok:
		panic(fmt.Sprintf("mcat: row canary: the row at %s was stored without a fingerprint", path))
	case fingerprint(o) != want:
		panic(fmt.Sprintf("mcat: row canary: the row at %s was changed after it was committed", path))
	}
}

// retire checks o, the row at path, as it leaves the catalog (replaced
// or deleted), and forgets it.
func (k *rowCanary) retire(path string, o *types.DataObject) {
	k.check(path, o)
	k.mu.Lock()
	defer k.mu.Unlock()
	delete(k.sums, o)
}

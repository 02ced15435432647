//go:build race

package core_test

// raceEnabled loosens TestOverheadBudget's alloc half: under the race
// detector sync.Pool deliberately drops a share of what is Put, so
// pooled buffers are reallocated now and then by design.
const raceEnabled = true

//go:build race

package chunk

// raceEnabled tells allocation fences to stand down: under the race
// detector sync.Pool deliberately drops a share of what is Put, so a
// pooled chunk is reallocated now and then by design.
const raceEnabled = true

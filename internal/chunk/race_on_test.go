//go:build race

package chunk

// raceEnabled tells allocation fences to stand down. A lend.Pool drops
// nothing under the race detector (these fences passed under -race
// -count=10 without this gate), but the standard library's sync.Pools
// still drop a share of what is Put, fmt's and encoding/json's among
// them, so a count on a path that reaches one moves by design.
const raceEnabled = true

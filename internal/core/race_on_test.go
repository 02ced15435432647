//go:build race

package core_test

// raceEnabled loosens TestOverheadBudget's alloc half. A lend.Pool drops
// nothing under the race detector, but the standard library's sync.Pools
// still drop a share of what is Put: fmt's printers and encoding/json's
// encode states are made again now and then by design (MemProfileRate=1
// under -race shows both pools' New on the telemetry path).
const raceEnabled = true

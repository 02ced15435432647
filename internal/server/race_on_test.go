//go:build race

package server

// raceEnabled shrinks the fixed-memory transfer under the race detector,
// whose instrumentation slows byte-moving code several-fold.
const raceEnabled = true

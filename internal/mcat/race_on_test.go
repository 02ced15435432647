//go:build race

package mcat_test

// raceEnabled tells the allocation fences to stand down: the race
// detector's instrumentation allocates on its own account.
const raceEnabled = true

//go:build framecanary

package lend

// Canary is set under the framecanary build tag: handed-back objects are
// dropped to the GC, not recycled, and a late use of one panics.
const Canary = true

//go:build !framecanary

package lend

// Canary is unset without the framecanary build tag (canary.go sets it).
const Canary = false

//go:build rowcanary

package mcat_test

// rowCanary tells the allocation fences to stand down: the row canary
// fingerprints each row the catalog stores or hands out, and its
// fingerprints allocate.
const rowCanary = true

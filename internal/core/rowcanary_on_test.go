//go:build rowcanary

package core_test

// rowCanary is set when the catalog's row canary is built: its
// fingerprints allocate on every row a mutation or a read touches, so
// the allocation fences stand down (see skipAllocFence).
const rowCanary = true

//go:build rowcanary

package server

// rowCanary is set when the catalog's row canary is built (see
// skipAllocFence): its fingerprints allocate on every row a request reads
// or writes.
const rowCanary = true

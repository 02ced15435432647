// Package lend is the switch behind the lending rule for pooled
// per-request objects: a storage read handle, a client call's receive
// buffer, a multiget's scratch. Such an object is lent by its pool,
// handed back once by its last use (a read handle's Close, an xfer's
// free), and never touched again by the holder that handed it back: the
// pool may already have lent it to someone else.
//
// Under the framecanary build tag nothing handed back is lent again
// (Recycle reports false) and a use after the hand-back panics (Stale),
// so a holder that broke the rule fails its test at once instead of
// reading or writing the object's next borrower. make race runs the
// suite so. Without the tag, Stale returns the error the object reports
// to a late caller.
package lend

// Recycle reports whether an object handed back may go to its pool:
// always, except under framecanary.
func Recycle() bool { return !Canary }

// Stale answers a use of an object after it was handed back: err, which
// the object returns to its late caller, or under framecanary a panic
// naming what was used.
func Stale(what string, err error) error {
	if Canary {
		panic(what + " used after it was handed back")
	}
	return err
}

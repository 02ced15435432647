//go:build framecanary

package server

// poisonedReqID is the correlation ID of a session back in its slot
// under the framecanary build tag. No client sends it: a Mux numbers its
// calls from 1.
const poisonedReqID = 0xA5A5A5A5A5A5A5A5

// poisonSession is the session canary, built with -tags framecanary
// (make race runs the whole suite so). reset marks a session going back
// to its slot, and checkLive panics on a reply, stream header or data
// write through it until the reader loop hands it the next request: a
// holder that outlived its request (a late relay Write) fails its test
// at once instead of writing into the connection's next reply. Without
// the tag, canary_off.go's pair does nothing.
func poisonSession(ss *session) { ss.reqID = poisonedReqID }

func checkLive(ss *session) {
	if ss.reqID == poisonedReqID {
		panic("server: session of " + ss.remote + " used after its request ended")
	}
}

//go:build framecanary

package server

import (
	"errors"
	"testing"
	"time"
)

// TestSessionCanaryPoisonsReset: a session back in its slot is
// poisoned, so each way a late holder could reply or stream through it
// panics, and nothing reaches the connection.
func TestSessionCanaryPoisonsReset(t *testing.T) {
	uses := map[string]func(ss *session){
		"reply":       func(ss *session) { reply(ss, &struct{}{}) },
		"rawReply":    func(ss *session) { ss.rawReply(nil) },
		"fail":        func(ss *session) { ss.fail(errors.New("late")) },
		"redirect":    func(ss *session) { ss.redirect("srb2", "addr") },
		"beginStream": func(ss *session) { ss.beginStream(nil, time.Time{}) },
		"Write":       func(ss *session) { ss.Write([]byte("late")) },
	}
	for name, use := range uses {
		ss, nc := testSession()
		ss.reset()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a reset session did not panic", name)
				}
			}()
			use(ss)
		}()
		if n := nc.written(); n != 0 {
			t.Errorf("%s on a reset session wrote %d bytes", name, n)
		}
	}
}

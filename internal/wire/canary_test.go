//go:build framecanary

package wire

import (
	"bytes"
	"testing"
)

// TestFrameCanaryPoisonsReturnedFrame: a slice kept past PutFrame reads
// poison, not the frame's bytes, so a reader that outlives its frame
// fails at once.
func TestFrameCanaryPoisonsReturnedFrame(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	req := Request{ID: 1, Op: OpStat, Trace: 7, Args: []byte{tagPathArgs, 2, '/', 'x'}}
	if err := c.WriteRequest(&req); err != nil {
		t.Fatal(err)
	}
	var got Request
	frame, err := c.ReadRequest(&got)
	if err != nil || !bytes.Equal(got.Args, req.Args) {
		t.Fatalf("request read as %+v, %v", got, err)
	}
	kept := got.Args
	PutFrame(frame)
	if !bytes.Equal(kept, bytes.Repeat([]byte{poisonByte}, len(kept))) {
		t.Fatalf("args kept past PutFrame read %x, want poison", kept)
	}
	if _, err := DecodeArgs[PathArgs](kept); err == nil {
		t.Error("poisoned args decoded")
	}
}

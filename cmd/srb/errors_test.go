package main

import (
	"errors"
	"testing"

	"gosrb/internal/auth"
	"gosrb/internal/client"
	"gosrb/internal/core"
	"gosrb/internal/mcat"
	"gosrb/internal/server"
	"gosrb/internal/types"
)

// TestRemoteErrorReadsOnce: a server's error reaches the user as the
// server wrote it, once: the client keeps its text and its sentinel, and
// srb adds no second "srb:".
func TestRemoteErrorReadsOnce(t *testing.T) {
	cat := mcat.New("admin", "sdsc")
	cat.AddUser(types.User{Name: "alice", Domain: "sdsc"})
	cat.MkColl("/home", "admin")
	authn := auth.New()
	authn.Register("alice", "alicepw")
	s := server.New(core.New(cat, "srb1"), authn, server.Proxy)
	t.Cleanup(func() { s.Close() })
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := client.Dial(addr, "alice", "alicepw")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cl.Close() })

	_, err = cl.Get("/home/nothere")
	if !errors.Is(err, types.ErrNotFound) {
		t.Fatalf("get of a missing path = %v, want not found", err)
	}
	const want = "srb: get /home/nothere: not found"
	if err.Error() != want {
		t.Errorf("client error = %q, want %q", err, want)
	}
	if got := errLine(err); got != want {
		t.Errorf("srb prints %q, want %q", got, want)
	}
	if got := errLine(errors.New("missing argument: path")); got != "srb: missing argument: path" {
		t.Errorf("a local error prints %q", got)
	}
}

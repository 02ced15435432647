//go:build !framecanary

package server

// poisonSession and checkLive without the framecanary tag do nothing;
// canary.go is the poisoning build.
func poisonSession(*session) {}

func checkLive(*session) {}

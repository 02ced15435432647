//go:build !framecanary

package wire

// poison without the framecanary tag leaves a returned frame as it is;
// canary.go is the poisoning build.
func poison([]byte) {}

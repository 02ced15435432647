//go:build framecanary

package wire

// poisonByte fills a returned frame: 0xA5 is no body tag or response
// flag byte, and a varint read from a run of it never ends, so a decode
// of poisoned bytes fails rather than passing.
const poisonByte = 0xA5

// poison is the frame canary, built with -tags framecanary (make race
// runs the whole suite so). PutFrame overwrites a returned frame with
// poisonByte before the pool lends it out again, so a reader that kept a
// slice of it — an Args or Body that outlived its frame — reads garbage
// at once and fails its test, instead of reading the right bytes until
// the pool hands the frame to another request. Without the tag,
// canary_off.go's poison does nothing.
func poison(b []byte) {
	b = b[:cap(b)]
	for i := range b {
		b[i] = poisonByte
	}
}

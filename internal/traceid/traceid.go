// Package traceid is the one type of a trace or span ID. An ID is an
// integer wherever a request carries it — 8 fixed bytes in the wire
// header, the key of the trace ring, the usage table, exemplars and the
// audit filter — and is formatted only where a person or a file reads
// it, as the 16 lowercase hex digits every JSON surface, audit record
// and flight-recorder file has always carried. It sits below both
// internal/obs and internal/types, which share it.
package traceid

import (
	"errors"
	"fmt"
	"math/rand/v2"
)

// ID is a trace or span ID. The zero ID means "none" — no trace, or no
// parent span — and prints as the empty string, as an absent ID always
// did. New never returns it.
type ID uint64

// New mints a fresh ID. IDs need only be unique among recent requests,
// so a fast PRNG suffices.
func New() ID {
	for {
		if id := ID(rand.Uint64()); id != 0 {
			return id
		}
	}
}

// hexLen is the length of a printed nonzero ID.
const hexLen = 16

var errSyntax = errors.New("a trace ID is 16 hex digits, not all zero")

// Parse reads an ID given from outside: a command line, a URL, a
// request body, a file. The empty string is the zero ID. Anything else
// must be exactly 16 hex digits, in either case, naming a nonzero ID;
// every other string is refused with an error, and none of them reads as
// the zero ID.
func Parse(s string) (ID, error) {
	if s == "" {
		return 0, nil
	}
	if len(s) != hexLen {
		return 0, fmt.Errorf("%q: %w", s, errSyntax)
	}
	var v uint64
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, fmt.Errorf("%q: %w", s, errSyntax)
		}
		v = v<<4 | uint64(c)
	}
	if v == 0 {
		return 0, fmt.Errorf("%q: %w", s, errSyntax)
	}
	return ID(v), nil
}

// appendHex appends id's printed form to b: 16 lowercase hex digits, or
// nothing for the zero ID.
func (id ID) appendHex(b []byte) []byte {
	if id == 0 {
		return b
	}
	const digits = "0123456789abcdef"
	for shift := 4 * (hexLen - 1); shift >= 0; shift -= 4 {
		b = append(b, digits[uint64(id)>>shift&0xf])
	}
	return b
}

// String returns id's printed form (see appendHex).
func (id ID) String() string {
	var b [hexLen]byte
	return string(id.appendHex(b[:0]))
}

// MarshalText encodes id as String does, so a JSON field holding an ID
// keeps the bytes a hex string field held.
func (id ID) MarshalText() ([]byte, error) { return id.appendHex(nil), nil }

// UnmarshalText decodes an ID through Parse.
func (id *ID) UnmarshalText(b []byte) error {
	v, err := Parse(string(b))
	if err != nil {
		return err
	}
	*id = v
	return nil
}

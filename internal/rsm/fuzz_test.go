package rsm

import (
	"testing"

	"repro/internal/types"
)

// FuzzDecodeOp feeds arbitrary strings to the op decoder; malformed input
// must error, and well-formed input must round-trip.
func FuzzDecodeOp(f *testing.F) {
	f.Add(string(Op{Kind: "w", Key: "k", Val: "v", Nonce: 1}.Encode()))
	// Untagged strings, among them the shapes of the retired
	// "kind|nonce|klen:keyval" format: all malformed now.
	for _, untagged := range []string{"", "w", "w|1|2:ab", "r|0|0:", "w|x|1:k", "w|1|99:k"} {
		f.Add(untagged)
	}
	// Binary wire-format seeds: reads, weird keys, custom kinds, and
	// truncations/corruptions of a valid encoding.
	binary := string(Op{Kind: "w", Key: "key|with:bytes", Val: "val\x00", Nonce: 42}.Encode())
	f.Add(binary)
	f.Add(string(Op{Kind: "r", Key: "k", Nonce: 7}.Encode()))
	f.Add(string(Op{Kind: "custom", Key: "k", Val: "v", Nonce: -1}.Encode()))
	f.Add(binary[:1])
	f.Add(binary[:len(binary)/2])
	f.Add(binary + "trailing")
	f.Add("\x01\xff junk after unknown kind byte")
	f.Fuzz(func(t *testing.T, s string) {
		op, err := DecodeOp(types.Value(s))
		if err != nil {
			return
		}
		if s[0] != opWireTag {
			t.Fatalf("untagged value %q decoded to %+v", s, op)
		}
		// A successfully decoded op re-encodes to something that decodes
		// back to itself (the encoding is canonical for decoded values).
		round, err := DecodeOp(op.Encode())
		if err != nil {
			t.Fatalf("re-encode of %+v failed to decode: %v", op, err)
		}
		if round != op {
			t.Fatalf("round trip changed op: %+v vs %+v", round, op)
		}
	})
}

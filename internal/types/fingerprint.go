package types

import "encoding/binary"

// Binary fingerprint vocabulary. The bounded exhaustive explorer keys its
// visited set by a 64-bit hash of a canonical binary encoding of the
// composed state; these helpers are the shared encoding primitives every
// layer's AppendFingerprint builds on. The encoding is self-delimiting
// (varint-framed) so distinct states cannot encode to the same byte
// sequence, and it is a pure function of the abstract state — never of map
// iteration order, pointer identity, or formatting.

// AppendFingerprintString appends a length-prefixed string.
func AppendFingerprintString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// AppendFingerprint appends the identifier's canonical encoding (⊥ encodes
// as the zero pair, below every defined identifier's encoding).
func (v ViewID) AppendFingerprint(buf []byte) []byte {
	buf = binary.AppendVarint(buf, v.Epoch)
	return binary.AppendVarint(buf, int64(v.Proc))
}

// AppendFingerprint appends the label's canonical encoding.
func (l Label) AppendFingerprint(buf []byte) []byte {
	buf = l.ID.AppendFingerprint(buf)
	buf = binary.AppendVarint(buf, int64(l.Seqno))
	return binary.AppendVarint(buf, int64(l.Origin))
}

// AppendFingerprint appends the set's members (already sorted and
// duplicate-free by construction), length-prefixed.
func (s ProcSet) AppendFingerprint(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s.ids)))
	for _, p := range s.ids {
		buf = binary.AppendVarint(buf, int64(p))
	}
	return buf
}

// AppendFingerprint appends the view: identifier then membership.
func (v View) AppendFingerprint(buf []byte) []byte {
	buf = v.ID.AppendFingerprint(buf)
	return v.Set.AppendFingerprint(buf)
}

// FNV-1a 64-bit constants (the visited-set hash; FNV is seed-free, so the
// same state hashes identically across runs, machines, and worker counts —
// a requirement for the CI exact-count gates).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// HashFingerprint hashes an encoded fingerprint to the 64-bit visited-set
// key (FNV-1a).
func HashFingerprint(buf []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, b := range buf {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	return h
}

package codec

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/types"
)

// TestVarintRoundTrip: every varint primitive reads back what it wrote,
// at the edges of each encoded length and of the 64-bit range.
func TestVarintRoundTrip(t *testing.T) {
	us := []uint64{0, 1, 127, 128, 16383, 16384, 1<<32 - 1, math.MaxUint64}
	is := []int64{0, 1, -1, 63, -64, 64, -65, math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64}
	l := types.Label{ID: types.ViewID{Epoch: 300, Proc: 4}, Seqno: 40001, Origin: 2}
	x := NewWriter()
	for _, u := range us {
		x.Uvarint(u)
	}
	for _, i := range is {
		x.Varint(i)
	}
	x.VarStr("")
	x.VarStr(strings.Repeat("v", 200))
	x.VarLabel(l)
	x.VarViewID(types.Bottom)
	r := NewReader(x.Data())
	for _, u := range us {
		if got := r.Uvarint(); got != u {
			t.Fatalf("Uvarint %d read back as %d", u, got)
		}
	}
	for _, i := range is {
		if got := r.Varint(); got != i {
			t.Fatalf("Varint %d read back as %d", i, got)
		}
	}
	if r.VarStr() != "" || r.VarStr() != strings.Repeat("v", 200) {
		t.Fatal("VarStr did not round-trip")
	}
	if got := r.VarLabel(); got != l {
		t.Fatalf("VarLabel %v read back as %v", l, got)
	}
	if got := r.VarViewID(); got != types.Bottom {
		t.Fatalf("VarViewID ⊥ read back as %v", got)
	}
	if r.Err() != nil || r.Rest() != 0 {
		t.Fatalf("err %v, %d bytes left", r.Err(), r.Rest())
	}
	x = NewWriter()
	x.VarLabel(types.Label{ID: types.G0(), Seqno: 8000, Origin: 4})
	if n := len(x.Data()); n != 5 {
		t.Errorf("a g0 label with seqno 8000 is %d bytes, want 5", n)
	}
}

// TestVarintRejectsMalformed: truncated, overflowing and overlong
// varints, and a string longer than its buffer, fail with ErrMalformed
// instead of panicking or reading garbage.
func TestVarintRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		buf  []byte
		read func(r *Reader)
		msg  string
	}{
		{"empty", nil, func(r *Reader) { r.Uvarint() }, "truncated varint"},
		{"truncated", []byte{0x80, 0x80}, func(r *Reader) { r.Uvarint() }, "truncated varint"},
		{"overflowing", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, func(r *Reader) { r.Uvarint() }, "overflowing varint"},
		{"eleven bytes", []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00}, func(r *Reader) { r.Uvarint() }, "overflowing varint"},
		{"overlong zero", []byte{0x80, 0x00}, func(r *Reader) { r.Uvarint() }, "overlong varint"},
		{"overlong signed", []byte{0x82, 0x80, 0x00}, func(r *Reader) { r.Varint() }, "overlong varint"},
		{"string past end", []byte{0x05, 'a', 'b'}, func(r *Reader) { r.VarStr() }, "truncated string"},
		{"huge string length", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, func(r *Reader) { r.VarStr() }, "truncated string"},
		{"label cut short", []byte{0x02, 0x00, 0x02}, func(r *Reader) { r.VarLabel() }, "truncated varint"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader(tc.buf)
			tc.read(r)
			if !errors.Is(r.Err(), ErrMalformed) || !strings.Contains(r.Err().Error(), tc.msg) {
				t.Fatalf("err = %v, want %q wrapping ErrMalformed", r.Err(), tc.msg)
			}
			if r.Uvarint() != 0 || r.Varint() != 0 || r.VarStr() != "" {
				t.Fatal("reads after a failure returned data")
			}
		})
	}
}

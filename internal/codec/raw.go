package codec

import (
	"encoding/binary"
	"fmt"

	"repro/internal/types"
)

// Writer exposes the wire format's low-level primitives so other packages
// (the recovery WAL) can build length-checked encodings from the same
// building blocks as the network payloads: fixed-width little-endian
// integers, length-prefixed strings, and the shared types vocabulary —
// plus variable-length forms of each (LEB128 varints, zigzag for signed
// values) that the network payloads do not use.
type Writer struct{ w writer }

// NewWriter returns an empty Writer.
func NewWriter() *Writer { return &Writer{} }

// Data returns the bytes written so far. The slice is the Writer's
// backing buffer; append no more after reading it.
func (x *Writer) Data() []byte { return x.w.buf }

// Reset empties the Writer, keeping its backing buffer for reuse — the
// allocation-free path for encoders that frame many records (the WAL).
// The caller must be done with every slice previously returned by Data.
func (x *Writer) Reset() { x.w.buf = x.w.buf[:0] }

// U8 writes one byte.
func (x *Writer) U8(v byte) { x.w.u8(v) }

// U32 writes a fixed-width 32-bit unsigned integer.
func (x *Writer) U32(v uint32) { x.w.u32(v) }

// I64 writes a fixed-width 64-bit signed integer.
func (x *Writer) I64(v int64) { x.w.i64(v) }

// I32 writes an int as a fixed-width 32-bit signed integer.
func (x *Writer) I32(v int) { x.w.i32(v) }

// Str writes a length-prefixed string.
func (x *Writer) Str(s string) { x.w.str(s) }

// ViewID writes a view identifier.
func (x *Writer) ViewID(id types.ViewID) { putViewID(&x.w, id) }

// View writes a view (identifier plus membership).
func (x *Writer) View(v types.View) { putView(&x.w, v) }

// Label writes a VStoTO label.
func (x *Writer) Label(l types.Label) { putLabel(&x.w, l) }

// Uvarint writes an unsigned varint.
func (x *Writer) Uvarint(v uint64) { x.w.buf = binary.AppendUvarint(x.w.buf, v) }

// Varint writes a signed (zigzag) varint.
func (x *Writer) Varint(v int64) { x.w.buf = binary.AppendVarint(x.w.buf, v) }

// VarStr writes a string prefixed with its length as an unsigned varint.
func (x *Writer) VarStr(s string) {
	x.Uvarint(uint64(len(s)))
	x.w.buf = append(x.w.buf, s...)
}

// VarViewID writes a view identifier as two signed varints.
func (x *Writer) VarViewID(id types.ViewID) {
	x.Varint(id.Epoch)
	x.Varint(int64(id.Proc))
}

// VarLabel writes a VStoTO label as four signed varints: a label of a
// small system costs about 5 bytes instead of Label's 20.
func (x *Writer) VarLabel(l types.Label) {
	x.VarViewID(l.ID)
	x.Varint(int64(l.Seqno))
	x.Varint(int64(l.Origin))
}

// Reader decodes buffers produced with Writer. Errors accumulate: after
// the first failure every further read returns a zero value, and Err
// reports the failure (wrapping ErrMalformed). Truncated or oversized
// length fields never panic.
type Reader struct{ r reader }

// NewReader reads from buf.
func NewReader(buf []byte) *Reader { return &Reader{r: reader{buf: buf}} }

// Err returns the first decoding failure, or nil.
func (x *Reader) Err() error { return x.r.err }

// Rest returns the number of unread bytes.
func (x *Reader) Rest() int { return len(x.r.buf) - x.r.off }

// U8 reads one byte.
func (x *Reader) U8() byte { return x.r.u8() }

// U32 reads a 32-bit unsigned integer.
func (x *Reader) U32() uint32 { return x.r.u32() }

// I64 reads a 64-bit signed integer.
func (x *Reader) I64() int64 { return x.r.i64() }

// I32 reads a 32-bit signed integer as an int.
func (x *Reader) I32() int { return x.r.i32() }

// Str reads a length-prefixed string.
func (x *Reader) Str() string { return x.r.str() }

// ViewID reads a view identifier.
func (x *Reader) ViewID() types.ViewID { return getViewID(&x.r) }

// View reads a view.
func (x *Reader) View() types.View { return getView(&x.r) }

// Label reads a VStoTO label.
func (x *Reader) Label() types.Label { return getLabel(&x.r) }

// Uvarint reads an unsigned varint. A varint that is truncated, runs past
// 64 bits, or is overlong — not the shortest encoding of its value, so
// every value has exactly one encoding — is malformed.
func (x *Reader) Uvarint() uint64 {
	r := &x.r
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	switch {
	case n == 0:
		r.fail("varint")
		return 0
	case n < 0:
		x.malformed("overflowing varint")
		return 0
	case n > 1 && r.buf[r.off+n-1] == 0:
		x.malformed("overlong varint")
		return 0
	}
	r.off += n
	return v
}

// malformed records a decoding failure that is not a truncation.
func (x *Reader) malformed(what string) {
	x.r.err = fmt.Errorf("codec: %s at offset %d: %w", what, x.r.off, ErrMalformed)
}

// Varint reads a signed (zigzag) varint, malformed as Uvarint.
func (x *Reader) Varint() int64 {
	u := x.Uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

// VarStr reads a string written by Writer.VarStr.
func (x *Reader) VarStr() string {
	n := x.Uvarint()
	r := &x.r
	if r.err != nil || n > uint64(len(r.buf)-r.off) {
		r.fail("string")
		return ""
	}
	s := string(r.buf[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

// VarViewID reads a view identifier written by Writer.VarViewID.
func (x *Reader) VarViewID() types.ViewID {
	return types.ViewID{Epoch: x.Varint(), Proc: types.ProcID(x.Varint())}
}

// VarLabel reads a label written by Writer.VarLabel.
func (x *Reader) VarLabel() types.Label {
	return types.Label{ID: x.VarViewID(), Seqno: int(x.Varint()), Origin: types.ProcID(x.Varint())}
}

package rsm

import (
	"fmt"
	"sync"

	"repro/internal/codec"
	"repro/internal/types"
)

// Op is one memory operation carried through the TO service.
type Op struct {
	// Kind is "w" for writes, "r" for broadcast (atomic) reads.
	Kind string
	// Key and Val are the target cell and, for writes, the new value.
	Key, Val string
	// Nonce distinguishes operations submitted at the same processor.
	Nonce int
}

// Op wire format (the internal/codec building blocks, like the WAL's
// records): one tag byte, then the kind as a byte, the nonce, and
// length-prefixed key and value. A value without the tag is malformed.
const (
	opWireTag   byte = 0x01
	opKindWrite byte = 'w'
	opKindRead  byte = 'r'
)

// opEncPool recycles the codec writers Encode frames ops through; the
// only allocation left on the encode path is the string conversion of
// the framed bytes (types.Value is a string).
var opEncPool = sync.Pool{New: func() any { return codec.NewWriter() }}

// Encode renders the op as a TO data value in the binary wire format.
// Keys and values may contain any bytes (both are length-prefixed).
func (o Op) Encode() types.Value {
	w := opEncPool.Get().(*codec.Writer)
	w.Reset()
	w.U8(opWireTag)
	switch o.Kind {
	case "w":
		w.U8(opKindWrite)
	case "r":
		w.U8(opKindRead)
	default:
		// Preserve arbitrary kinds byte-for-byte (tests construct them);
		// DecodeOp surfaces them, and Memory apply rejects them with an
		// error rather than a panic.
		w.U8(0)
		w.Str(o.Kind)
	}
	w.I64(int64(o.Nonce))
	w.Str(o.Key)
	w.Str(o.Val)
	v := types.Value(w.Data())
	opEncPool.Put(w)
	return v
}

// DecodeOp parses an encoded op. Malformed input errors; it never panics.
func DecodeOp(v types.Value) (Op, error) {
	if len(v) == 0 || v[0] != opWireTag {
		return Op{}, fmt.Errorf("rsm: malformed op %q: no wire tag", string(v))
	}
	r := codec.NewReader([]byte(v))
	r.U8() // tag, already checked
	var op Op
	switch k := r.U8(); k {
	case opKindWrite:
		op.Kind = "w"
	case opKindRead:
		op.Kind = "r"
	case 0:
		op.Kind = r.Str()
	default:
		return Op{}, fmt.Errorf("rsm: malformed op: unknown kind byte %d", k)
	}
	op.Nonce = int(r.I64())
	op.Key = r.Str()
	op.Val = r.Str()
	if err := r.Err(); err != nil {
		return Op{}, fmt.Errorf("rsm: malformed op: %w", err)
	}
	if r.Rest() != 0 {
		return Op{}, fmt.Errorf("rsm: malformed op: %d trailing bytes", r.Rest())
	}
	return op, nil
}

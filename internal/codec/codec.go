// Package codec serializes every payload that crosses the simulated
// network — membership packets, tokens, probes, and the VStoTO messages
// nested inside tokens — to a compact binary wire format and back.
//
// Its purpose is honesty: with the transcode hook installed (see
// stack.Options.Wire), no Go pointer survives a network hop, so the
// protocols cannot accidentally depend on shared in-memory state between
// processors. Every field that matters must round-trip through bytes, and
// the tests assert exact round-trip fidelity for every wire type.
//
// Format: one type-tag byte, then fields with fixed-width little-endian
// integers and length-prefixed byte strings. A summary's content is its
// runs, in the order the summary holds them: per run the view, origin,
// first seqno, count and values, with no per-value label. The one map on
// the wire, a token's delivered counts, is written in sorted key order, so
// every encoding is deterministic.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/check"
	"repro/internal/membership"
	"repro/internal/types"
	"repro/internal/vsimpl"
	"repro/internal/vstoto"
)

// ErrMalformed is wrapped by every decoding failure, so callers can
// distinguish malformed input (errors.Is(err, ErrMalformed)) from
// programming errors without matching message text.
var ErrMalformed = errors.New("malformed input")

// Type tags.
const (
	tagLabeledValue byte = iota + 1
	tagSummary
	tagCall
	tagAccept
	tagNewview
	tagToken
	tagProbe
	tagString // raw string payloads (used by vsimpl-level tests)
	tagTokenRequest
)

type writer struct{ buf []byte }

func (w *writer) u8(v byte)    { w.buf = append(w.buf, v) }
func (w *writer) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *writer) i64(v int64)  { w.u64(uint64(v)) }
func (w *writer) i32(v int)    { w.u32(uint32(int32(v))) }
func (w *writer) bytes(b []byte) {
	w.u32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}
func (w *writer) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

type reader struct {
	buf []byte
	off int
	err error
}

func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("codec: truncated %s at offset %d: %w", what, r.off, ErrMalformed)
	}
}
func (r *reader) u8() byte {
	if r.err != nil || r.off+1 > len(r.buf) {
		r.fail("u8")
		return 0
	}
	v := r.buf[r.off]
	r.off++
	return v
}
func (r *reader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.buf) {
		r.fail("u32")
		return 0
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v
}
func (r *reader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.buf) {
		r.fail("u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v
}
func (r *reader) i64() int64 { return int64(r.u64()) }
func (r *reader) i32() int   { return int(int32(r.u32())) }
func (r *reader) bytes() []byte {
	n := int(r.u32())
	if r.err != nil || n < 0 || r.off+n > len(r.buf) {
		r.fail("bytes")
		return nil
	}
	out := r.buf[r.off : r.off+n]
	r.off += n
	return out
}
func (r *reader) str() string { return string(r.bytes()) }

// --- field helpers --------------------------------------------------------

func putViewID(w *writer, id types.ViewID) {
	w.i64(id.Epoch)
	w.i32(int(id.Proc))
}

func getViewID(r *reader) types.ViewID {
	return types.ViewID{Epoch: r.i64(), Proc: types.ProcID(r.i32())}
}

func putProcSet(w *writer, s types.ProcSet) {
	members := s.Members()
	w.u32(uint32(len(members)))
	for _, p := range members {
		w.i32(int(p))
	}
}

func getProcSet(r *reader) types.ProcSet {
	n := int(r.u32())
	if r.err != nil || n < 0 || n > len(r.buf) {
		r.fail("procset")
		return types.ProcSet{}
	}
	ids := make([]types.ProcID, 0, n)
	for i := 0; i < n; i++ {
		ids = append(ids, types.ProcID(r.i32()))
	}
	return types.NewProcSet(ids...)
}

func putView(w *writer, v types.View) {
	putViewID(w, v.ID)
	putProcSet(w, v.Set)
}

func getView(r *reader) types.View {
	return types.View{ID: getViewID(r), Set: getProcSet(r)}
}

func putLabel(w *writer, l types.Label) {
	putViewID(w, l.ID)
	w.i32(l.Seqno)
	w.i32(int(l.Origin))
}

func getLabel(r *reader) types.Label {
	return types.Label{ID: getViewID(r), Seqno: r.i32(), Origin: types.ProcID(r.i32())}
}

func putMsgID(w *writer, id check.MsgID) {
	w.i32(int(id.Sender))
	// Seq is 64-bit on the wire: recovered incarnations resume sending
	// above an incarnation-scoped floor (inc<<32), so a 32-bit field
	// would silently alias post-recovery message IDs onto pre-crash ones.
	w.i64(int64(id.Seq))
}

func getMsgID(r *reader) check.MsgID {
	return check.MsgID{Sender: types.ProcID(r.i32()), Seq: int(r.i64())}
}

func putSummary(w *writer, x *vstoto.Summary) {
	runs := x.ContentRuns()
	w.u32(uint32(len(runs)))
	for _, r := range runs {
		putViewID(w, r.ID)
		w.i32(int(r.Origin))
		w.i32(r.First)
		w.u32(uint32(len(r.Vals)))
		for _, a := range r.Vals {
			w.str(string(a))
		}
	}
	w.u32(uint32(len(x.Ord)))
	for _, l := range x.Ord {
		putLabel(w, l)
	}
	w.i32(x.Next)
	putViewID(w, x.High)
}

// getSummary decodes a summary, rejecting content no summary has: a run
// that is empty, starts below seqno 1 or runs past the largest one, or
// that is out of (view, origin, first) order with, overlaps or touches
// the run before it.
func getSummary(r *reader) *vstoto.Summary {
	nRuns := int(r.u32())
	if r.err != nil || nRuns < 0 || nRuns > len(r.buf) {
		r.fail("summary runs")
		return nil
	}
	runs := make([]vstoto.ContentRun, 0, nRuns)
	for i := 0; i < nRuns; i++ {
		run := vstoto.ContentRun{ID: getViewID(r), Origin: types.ProcID(r.i32()), First: r.i32()}
		k := int(r.u32())
		// Every value takes at least its 4-byte length.
		if r.err != nil || k < 1 || k > (len(r.buf)-r.off)/4 {
			r.fail("summary run")
			return nil
		}
		if run.First < 1 || run.First > math.MaxInt32-k+1 || i > 0 && !runFollows(&runs[i-1], &run) {
			r.err = fmt.Errorf("codec: summary run %d (%v@%v from %d) out of place: %w",
				i, run.ID, run.Origin, run.First, ErrMalformed)
			return nil
		}
		run.Vals = make([]types.Value, k)
		for j := range run.Vals {
			run.Vals[j] = types.Value(r.str())
		}
		runs = append(runs, run)
	}
	nOrd := int(r.u32())
	if r.err != nil || nOrd < 0 || nOrd > len(r.buf) {
		r.fail("summary ord")
		return nil
	}
	ord := make([]types.Label, 0, nOrd)
	for i := 0; i < nOrd; i++ {
		ord = append(ord, getLabel(r))
	}
	return &vstoto.Summary{Runs: runs, Ord: ord, Next: r.i32(), High: getViewID(r)}
}

// runFollows reports whether b may follow a in a summary's runs: a later
// (view, origin), or the same one from past a's end with a gap between.
func runFollows(a, b *vstoto.ContentRun) bool {
	if c := a.ID.Cmp(b.ID); c != 0 {
		return c < 0
	}
	if a.Origin != b.Origin {
		return a.Origin < b.Origin
	}
	return b.First > a.First+len(a.Vals)
}

// --- top-level encode/decode ----------------------------------------------

// Encode serializes a wire payload. It returns an error for types the wire
// format does not know. The returned slice is freshly allocated and owned
// by the caller; hot paths that can reuse a buffer should prefer
// AppendEncode or Roundtrip (which encodes through a pooled scratch).
func Encode(payload any) ([]byte, error) {
	return AppendEncode(nil, payload)
}

// AppendEncode serializes a wire payload appending to dst (which may be
// nil) and returns the extended buffer, allowing encode buffers to be
// reused across calls on a hot path.
func AppendEncode(dst []byte, payload any) ([]byte, error) {
	w := writer{buf: dst}
	if err := encodeInto(&w, payload); err != nil {
		return dst, err
	}
	return w.buf, nil
}

func encodeInto(w *writer, payload any) error {
	switch m := payload.(type) {
	case vstoto.LabeledValue:
		w.u8(tagLabeledValue)
		putLabel(w, m.L)
		w.str(string(m.A))
	case *vstoto.Summary:
		w.u8(tagSummary)
		putSummary(w, m)
	case membership.CallPkt:
		w.u8(tagCall)
		putViewID(w, m.ID)
	case membership.AcceptPkt:
		w.u8(tagAccept)
		putViewID(w, m.ID)
	case membership.NewviewPkt:
		w.u8(tagNewview)
		putView(w, m.V)
	case *vsimpl.TokenPkt:
		w.u8(tagToken)
		putView(w, m.View)
		w.i32(m.Base)
		w.u32(uint32(len(m.Msgs)))
		for _, tm := range m.Msgs {
			putMsgID(w, tm.ID)
			w.i32(int(tm.From))
			if err := encodeInto(w, tm.Payload); err != nil {
				return err
			}
		}
		procs := make([]types.ProcID, 0, len(m.Delivered))
		for p := range m.Delivered {
			procs = append(procs, p)
		}
		sort.Slice(procs, func(i, j int) bool { return procs[i] < procs[j] })
		w.u32(uint32(len(procs)))
		for _, p := range procs {
			w.i32(int(p))
			w.i32(m.Delivered[p])
		}
	case vsimpl.ProbePkt:
		w.u8(tagProbe)
		putViewID(w, m.ViewID)
	case vsimpl.TokenRequestPkt:
		w.u8(tagTokenRequest)
		putViewID(w, m.ViewID)
	case string:
		w.u8(tagString)
		w.str(m)
	default:
		return fmt.Errorf("codec: unsupported wire type %T", payload)
	}
	return nil
}

// Decode parses a wire payload. Any failure — truncation, oversized
// length fields, unknown tags, trailing bytes — is reported as an error
// wrapping ErrMalformed; malformed input never panics.
func Decode(buf []byte) (any, error) {
	r := &reader{buf: buf}
	out := decodeFrom(r, 0)
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(buf) {
		return nil, fmt.Errorf("codec: %d trailing bytes: %w", len(buf)-r.off, ErrMalformed)
	}
	return out, nil
}

func decodeFrom(r *reader, depth int) any {
	switch tag := r.u8(); tag {
	case tagLabeledValue:
		return vstoto.LabeledValue{L: getLabel(r), A: types.Value(r.str())}
	case tagSummary:
		return getSummary(r)
	case tagCall:
		return membership.CallPkt{ID: getViewID(r)}
	case tagAccept:
		return membership.AcceptPkt{ID: getViewID(r)}
	case tagNewview:
		return membership.NewviewPkt{V: getView(r)}
	case tagToken:
		if depth > 0 {
			// Tokens carry client payloads, never other tokens; a nested
			// token tag only appears in crafted or corrupted input, and
			// rejecting it bounds the decoder's recursion.
			if r.err == nil {
				r.err = fmt.Errorf("codec: nested token at depth %d: %w", depth, ErrMalformed)
			}
			return nil
		}
		tok := &vsimpl.TokenPkt{View: getView(r)}
		tok.Base = r.i32()
		nMsgs := int(r.u32())
		if r.err != nil || nMsgs < 0 || nMsgs > len(r.buf) {
			r.fail("token msgs")
			return nil
		}
		tok.Msgs = make([]vsimpl.TokenMsg, 0, nMsgs)
		for i := 0; i < nMsgs; i++ {
			tm := vsimpl.TokenMsg{ID: getMsgID(r), From: types.ProcID(r.i32())}
			tm.Payload = decodeFrom(r, depth+1)
			if r.err != nil {
				return nil
			}
			tok.Msgs = append(tok.Msgs, tm)
		}
		nDel := int(r.u32())
		if r.err != nil || nDel < 0 || nDel > len(r.buf) {
			r.fail("token delivered")
			return nil
		}
		tok.Delivered = make(map[types.ProcID]int, nDel)
		for i := 0; i < nDel; i++ {
			p := types.ProcID(r.i32())
			tok.Delivered[p] = r.i32()
		}
		return tok
	case tagProbe:
		return vsimpl.ProbePkt{ViewID: getViewID(r)}
	case tagTokenRequest:
		return vsimpl.TokenRequestPkt{ViewID: getViewID(r)}
	case tagString:
		return r.str()
	default:
		if r.err == nil {
			r.err = fmt.Errorf("codec: unknown tag %d: %w", tag, ErrMalformed)
		}
		return nil
	}
}

// encodePool recycles Roundtrip's scratch buffers. Safe across concurrent
// simulations (the sweep engine runs many at once); each Roundtrip holds a
// buffer only for the duration of the call.
var encodePool = sync.Pool{
	New: func() any { return &writer{buf: make([]byte, 0, 512)} },
}

// Roundtrip encodes then decodes, returning a deep copy that shares no
// memory with the input — the transcode hook for net.Config. The encode
// side runs through a pooled scratch buffer: Decode never aliases its
// input (every decoded string and value is copied out), so the buffer can
// be recycled as soon as the call returns.
func Roundtrip(payload any) (any, error) {
	w := encodePool.Get().(*writer)
	w.buf = w.buf[:0]
	defer encodePool.Put(w)
	if err := encodeInto(w, payload); err != nil {
		return nil, err
	}
	return Decode(w.buf)
}

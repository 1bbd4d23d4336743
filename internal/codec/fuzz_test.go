package codec

import (
	"testing"

	"repro/internal/check"
	"repro/internal/membership"
	"repro/internal/types"
	"repro/internal/vsimpl"
	"repro/internal/vstoto"
)

// FuzzDecode feeds arbitrary bytes to the wire decoder; it must reject
// garbage with an error — never panic, never hang.
func FuzzDecode(f *testing.F) {
	seed, _ := Encode(vstoto.LabeledValue{
		L: types.Label{ID: types.G0(), Seqno: 1, Origin: 0}, A: "seed",
	})
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x00, 0x01})
	sum, _ := Encode(&vstoto.Summary{Con: map[types.Label]types.Value{}, Next: 1})
	f.Add(sum)
	g := types.G0()
	runs, _ := Encode(&vstoto.Summary{
		Runs: []vstoto.ContentRun{
			{ID: g, Origin: 0, First: 1, Vals: []types.Value{"a", "b", "c"}},
			{ID: g, Origin: 0, First: 5, Vals: []types.Value{"e"}},
			{ID: g, Origin: 2, First: 1, Vals: []types.Value{"x"}},
		},
		Ord:  []types.Label{{ID: g, Seqno: 1, Origin: 0}},
		Next: 2, High: g,
	})
	f.Add(runs)
	// Each class of malformed runs, so the fuzzer starts at every check.
	for _, b := range malformedSummaries() {
		f.Add(b)
	}
	// One valid encoding of every wire type, so the fuzzer starts inside
	// each branch of the decoder rather than having to find the tags.
	v := types.View{ID: types.ViewID{Epoch: 3, Proc: 1}, Set: types.RangeProcSet(3)}
	valid := [][]byte{seed, sum, runs}
	for _, pkt := range []any{
		membership.CallPkt{ID: v.ID},
		membership.AcceptPkt{ID: v.ID},
		membership.NewviewPkt{V: v},
		vsimpl.ProbePkt{ViewID: v.ID},
		vsimpl.TokenRequestPkt{ViewID: v.ID},
		&vsimpl.TokenPkt{
			View: v,
			Base: 2,
			Msgs: []vsimpl.TokenMsg{{
				ID:   check.MsgID{Sender: 1, Seq: 3},
				From: 1,
				Payload: vstoto.LabeledValue{
					L: types.Label{ID: v.ID, Seqno: 1, Origin: 1}, A: "tok",
				},
			}},
			Delivered: map[types.ProcID]int{0: 3, 1: 2},
		},
		"hello",
	} {
		b, err := Encode(pkt)
		if err != nil {
			f.Fatalf("seed %T does not encode: %v", pkt, err)
		}
		f.Add(b)
		valid = append(valid, b)
	}
	// Near-valid corpus: every strict truncation and a spread of single-bit
	// flips of each valid encoding — the exact shapes a torn or corrupted
	// stable-storage tail hands the decoder.
	for _, b := range valid {
		for n := 0; n < len(b); n++ {
			f.Add(b[:n])
		}
		for off := 0; off < len(b); off++ {
			for _, bit := range []uint{0, 3, 7} {
				mut := append([]byte(nil), b...)
				mut[off] ^= 1 << bit
				f.Add(mut)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := Decode(data)
		if err != nil {
			return
		}
		// Whatever decodes must re-encode and decode to the same value.
		b2, err := Encode(out)
		if err != nil {
			t.Fatalf("decoded value %T does not re-encode: %v", out, err)
		}
		if _, err := Decode(b2); err != nil {
			t.Fatalf("re-encoded value does not decode: %v", err)
		}
	})
}

package codec

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/check"
	"repro/internal/membership"
	"repro/internal/types"
	"repro/internal/vsimpl"
	"repro/internal/vstoto"
)

func roundtrip(t *testing.T, payload any) any {
	t.Helper()
	out, err := Roundtrip(payload)
	if err != nil {
		t.Fatalf("Roundtrip(%T): %v", payload, err)
	}
	return out
}

func gidc(epoch int64, proc types.ProcID) types.ViewID {
	return types.ViewID{Epoch: epoch, Proc: proc}
}

func TestLabeledValueRoundTrip(t *testing.T) {
	in := vstoto.LabeledValue{
		L: types.Label{ID: gidc(3, 1), Seqno: 7, Origin: 2},
		A: "payload with \x00 bytes and unicode ⊥",
	}
	out := roundtrip(t, in)
	if out != in {
		t.Fatalf("got %v, want %v", out, in)
	}
}

func TestSummaryRoundTrip(t *testing.T) {
	la := types.Label{ID: gidc(1, 0), Seqno: 1, Origin: 0}
	lb := types.Label{ID: gidc(2, 1), Seqno: 3, Origin: 1}
	in := &vstoto.Summary{
		Con:  map[types.Label]types.Value{la: "a", lb: "b"},
		Ord:  []types.Label{lb, la},
		Next: 2,
		High: gidc(2, 1),
	}
	out := roundtrip(t, in).(*vstoto.Summary)
	if out == in {
		t.Fatal("round trip returned the same pointer")
	}
	// The literal form decodes to the run form of the same content.
	want := &vstoto.Summary{Runs: vstoto.RunsOf(in.Con), Ord: in.Ord, Next: in.Next, High: in.High}
	if !reflect.DeepEqual(out, want) {
		t.Fatalf("got %+v, want %+v", out, want)
	}
	if again := roundtrip(t, out); !reflect.DeepEqual(again, want) {
		t.Fatalf("run form: got %+v, want %+v", again, want)
	}
}

func TestEmptySummaryRoundTrip(t *testing.T) {
	in := &vstoto.Summary{Con: map[types.Label]types.Value{}, Next: 1, High: types.Bottom}
	out := roundtrip(t, in).(*vstoto.Summary)
	if len(out.ContentRuns()) != 0 || len(out.Ord) != 0 || out.Next != 1 || !out.High.IsBottom() {
		t.Fatalf("got %+v", out)
	}
}

func TestMembershipPacketsRoundTrip(t *testing.T) {
	for _, in := range []any{
		membership.CallPkt{ID: gidc(9, 2)},
		membership.AcceptPkt{ID: gidc(9, 2)},
		membership.NewviewPkt{V: types.View{ID: gidc(9, 2), Set: types.NewProcSet(0, 2, 5)}},
		vsimpl.ProbePkt{ViewID: types.Bottom},
		vsimpl.TokenRequestPkt{ViewID: gidc(9, 2)},
		"raw string payload",
	} {
		out, err := Roundtrip(in)
		if err != nil {
			t.Fatalf("%T: %v", in, err)
		}
		if !reflect.DeepEqual(out, in) {
			t.Fatalf("%T: got %v, want %v", in, out, in)
		}
	}
}

func TestTokenRoundTrip(t *testing.T) {
	la := types.Label{ID: gidc(2, 0), Seqno: 1, Origin: 0}
	in := &vsimpl.TokenPkt{
		View: types.View{ID: gidc(2, 0), Set: types.NewProcSet(0, 1, 2)},
		Msgs: []vsimpl.TokenMsg{
			{ID: check.MsgID{Sender: 0, Seq: 1}, From: 0, Payload: vstoto.LabeledValue{L: la, A: "v"}},
			{ID: check.MsgID{Sender: 1, Seq: 1}, From: 1, Payload: &vstoto.Summary{
				Runs: []vstoto.ContentRun{{ID: la.ID, Origin: la.Origin, First: 1, Vals: []types.Value{"v"}}},
				Ord:  []types.Label{la}, Next: 1, High: gidc(1, 0),
			}},
			{ID: check.MsgID{Sender: 2, Seq: 4}, From: 2, Payload: "plain"},
		},
		Delivered: map[types.ProcID]int{0: 3, 1: 2, 2: 0},
	}
	out := roundtrip(t, in).(*vsimpl.TokenPkt)
	if out == in {
		t.Fatal("same pointer after round trip")
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("got %+v\nwant %+v", out, in)
	}
	// Mutating the copy must not affect the original (deep copy).
	out.Delivered[0] = 99
	out.Msgs[0].Payload = "clobbered"
	if in.Delivered[0] != 3 {
		t.Fatal("shared Delivered map")
	}
	if _, ok := in.Msgs[0].Payload.(vstoto.LabeledValue); !ok {
		t.Fatal("shared Msgs slice")
	}
}

func TestUnsupportedTypeErrors(t *testing.T) {
	if _, err := Encode(struct{ X int }{1}); err == nil {
		t.Fatal("unsupported type encoded")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	b, err := Encode(vstoto.LabeledValue{L: types.Label{ID: gidc(1, 0), Seqno: 1, Origin: 0}, A: "x"})
	if err != nil {
		t.Fatal(err)
	}
	// Truncations at every length must error, never panic.
	for cut := 0; cut < len(b); cut++ {
		if _, err := Decode(b[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Unknown tag.
	if _, err := Decode([]byte{0xFF}); err == nil {
		t.Fatal("unknown tag accepted")
	}
	// Trailing garbage.
	if _, err := Decode(append(b, 0x00)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestDeterministicEncoding(t *testing.T) {
	// A literal content is written as its sorted runs: two structurally
	// equal summaries built in different insertion orders encode
	// identically.
	la := types.Label{ID: gidc(1, 0), Seqno: 1, Origin: 0}
	lb := types.Label{ID: gidc(1, 0), Seqno: 2, Origin: 1}
	x1 := &vstoto.Summary{Con: map[types.Label]types.Value{la: "a", lb: "b"}, Next: 1}
	x2 := &vstoto.Summary{Con: map[types.Label]types.Value{lb: "b", la: "a"}, Next: 1}
	b1, _ := Encode(x1)
	b2, _ := Encode(x2)
	if string(b1) != string(b2) {
		t.Fatal("encoding not deterministic")
	}
}

func TestLabeledValueQuickRoundTrip(t *testing.T) {
	f := func(epoch int64, proc, origin uint8, seq uint16, val string) bool {
		in := vstoto.LabeledValue{
			L: types.Label{
				ID:     types.ViewID{Epoch: epoch, Proc: types.ProcID(proc)},
				Seqno:  int(seq),
				Origin: types.ProcID(origin),
			},
			A: types.Value(val),
		}
		out, err := Roundtrip(in)
		return err == nil && out == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestRoundtripDoesNotAliasScratch pins the pooled-buffer contract: no
// decoded structure may reference the (recycled) encode scratch. Two
// interleaved roundtrips reusing the same pooled buffer must leave the
// first result intact.
func TestRoundtripDoesNotAliasScratch(t *testing.T) {
	first := vstoto.LabeledValue{
		L: types.Label{ID: types.G0(), Seqno: 1, Origin: 0},
		A: "first-payload-value-AAAAAAAAAAAAAAAA",
	}
	got1, err := Roundtrip(first)
	if err != nil {
		t.Fatal(err)
	}
	// A second roundtrip reuses (and overwrites) the pooled scratch.
	if _, err := Roundtrip(vstoto.LabeledValue{
		L: types.Label{ID: types.G0(), Seqno: 2, Origin: 1},
		A: "second-payload-value-BBBBBBBBBBBBBBB",
	}); err != nil {
		t.Fatal(err)
	}
	if lv := got1.(vstoto.LabeledValue); lv.A != first.A || lv.L != first.L {
		t.Fatalf("first decode mutated by second roundtrip: %+v", lv)
	}
}

// TestRoundtripConcurrent exercises the encode pool from many goroutines
// (the sweep engine's access pattern); run under -race this pins pool
// safety across concurrent simulations.
func TestRoundtripConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				in := vstoto.LabeledValue{
					L: types.Label{ID: types.G0(), Seqno: i, Origin: types.ProcID(g)},
					A: types.Value(fmt.Sprintf("g%d-v%d", g, i)),
				}
				out, err := Roundtrip(in)
				if err != nil {
					t.Error(err)
					return
				}
				if lv := out.(vstoto.LabeledValue); lv != in {
					t.Errorf("roundtrip mismatch: %+v != %+v", lv, in)
					return
				}
			}
		}()
	}
	wg.Wait()
}

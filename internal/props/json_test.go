package props

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"testing"

	"repro/internal/check"
	"repro/internal/sim"
	"repro/internal/types"
)

// refAppendEventJSONL is the reflection encoder AppendEventJSONL replaced,
// kept as the reference its output must equal byte for byte.
func refAppendEventJSONL(w io.Writer, e Event) error {
	j := eventJSON{
		Kind:   kindString(e.Kind),
		TNanos: int64(e.T),
		P:      int(e.P),
		From:   int(e.From),
	}
	switch e.Kind {
	case TOBcast, TOBrcv:
		j.Value = string(e.Value)
		j.ValueSeq = e.ValueSeq
	case VSGpsnd, VSGprcv, VSSafe:
		j.MsgSender = int(e.Msg.Sender)
		j.MsgSeq = e.Msg.Seq
	case VSNewview:
		j.ViewEpoch = e.View.ID.Epoch
		j.ViewProc = int(e.View.ID.Proc)
		for _, m := range e.View.Set.Members() {
			j.ViewSet = append(j.ViewSet, int(m))
		}
	}
	return json.NewEncoder(w).Encode(j)
}

// refAppendInitialJSONL is AppendInitialJSONL's former reflection encoder.
func refAppendInitialJSONL(w io.Writer, p types.ProcID, v types.View) error {
	set := make([]int, 0, v.Set.Size())
	for _, m := range v.Set.Members() {
		set = append(set, int(m))
	}
	return json.NewEncoder(w).Encode(eventJSON{
		Kind: "initial", P: int(p),
		ViewEpoch: v.ID.Epoch, ViewProc: int(v.ID.Proc), ViewSet: set,
	})
}

// allKinds is every event kind plus one the encoder names "?".
var allKinds = []Kind{TOBcast, TOBrcv, VSGpsnd, VSGprcv, VSSafe, VSNewview, Kind(99)}

// trickyValues are strings encoding/json escapes: HTML characters, invalid
// UTF-8, the JavaScript line terminators, control bytes, quotes and
// backslashes, DEL, and valid multi-byte text it leaves alone.
var trickyValues = []string{
	"", "plain", "<script>&amp;</script>", "a>b", "\xff\xfe", "ok\xc3", "\u2028\u2029",
	"line\nbreak\ttab\rret", "\x00\x01\x1f\b\f", `quote " and \ backslash`, "\x7f",
	"héllo, 世界", "\U0001F600", "\xed\xa0\x80",
}

// eventOf builds one event of kind k from the fuzzer's fields; every
// field is set whatever the kind, so the encoder's per-kind choice of
// fields is exercised too.
func eventOf(k Kind, t int64, p, from int, value string, valueSeq, sender, seq int, epoch int64, viewProc int, set []byte) Event {
	ids := make([]types.ProcID, len(set))
	for i, m := range set {
		ids[i] = types.ProcID(int8(m)) // negative identifiers too
	}
	return Event{
		T: sim.Time(t), Kind: k, P: types.ProcID(p), From: types.ProcID(from),
		Value: types.Value(value), ValueSeq: valueSeq,
		Msg:  check.MsgID{Sender: types.ProcID(sender), Seq: seq},
		View: types.View{ID: types.ViewID{Epoch: epoch, Proc: types.ProcID(viewProc)}, Set: types.NewProcSet(ids...)},
	}
}

// checkEncoding compares AppendEventJSONL and AppendInitialJSONL against
// the reference encoders, through a plain writer and through a
// *bufio.Writer (whose buffer the encoder builds lines in).
func checkEncoding(t *testing.T, e Event) {
	t.Helper()
	var want, plain, viaBuf bytes.Buffer
	if err := refAppendEventJSONL(&want, e); err != nil {
		t.Fatal(err)
	}
	if err := AppendEventJSONL(&plain, e); err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriterSize(&viaBuf, 64)
	bw.WriteString("x") // the line starts mid-buffer
	if err := AppendEventJSONL(bw, e); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	if !bytes.Equal(plain.Bytes(), want.Bytes()) {
		t.Fatalf("%+v:\n got %q\nwant %q", e, plain.Bytes(), want.Bytes())
	}
	if got := bytes.TrimPrefix(viaBuf.Bytes(), []byte("x")); !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("%+v via bufio:\n got %q\nwant %q", e, got, want.Bytes())
	}
	want.Reset()
	plain.Reset()
	if err := refAppendInitialJSONL(&want, e.P, e.View); err != nil {
		t.Fatal(err)
	}
	if err := AppendInitialJSONL(&plain, e.P, e.View); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), want.Bytes()) {
		t.Fatalf("initial %v %v:\n got %q\nwant %q", e.P, e.View, plain.Bytes(), want.Bytes())
	}
}

// TestEventJSONLMatchesEncodingJSON: for every event kind, zero and
// non-zero, negative and extreme integers, and every tricky string, the
// strconv encoder writes exactly the bytes encoding/json does.
func TestEventJSONLMatchesEncodingJSON(t *testing.T) {
	ints := []int{0, 1, -1, 7, math.MaxInt32, math.MinInt64, math.MaxInt64}
	for _, k := range allKinds {
		for _, v := range trickyValues {
			for _, n := range ints {
				checkEncoding(t, eventOf(k, int64(n), n, n, v, n, n, n, int64(n), n, nil))
				checkEncoding(t, eventOf(k, int64(n), 0, -n, v, n, 0, n, int64(-n), 0, []byte{0, 3, 255}))
			}
		}
	}
}

// TestEventJSONLAllocatesNothing: a brcv line written to a *bufio.Writer
// is built in the writer's buffer, with no allocation.
func TestEventJSONLAllocatesNothing(t *testing.T) {
	bw := bufio.NewWriterSize(io.Discard, 4096)
	e := Event{T: 123456789, Kind: TOBrcv, P: 1, From: 2, Value: "v123", ValueSeq: 42}
	if allocs := testing.AllocsPerRun(100, func() { AppendEventJSONL(bw, e) }); allocs != 0 {
		t.Fatalf("AppendEventJSONL allocated %v times per line", allocs)
	}
}

// FuzzEventJSONL: any event, of any kind, encodes exactly as encoding/json
// encodes it.
func FuzzEventJSONL(f *testing.F) {
	for i, v := range trickyValues {
		k := allKinds[i%len(allKinds)]
		f.Add(int(k), int64(i), i, -i, v, i, -i, i, int64(-i), i, []byte{byte(i), 1})
	}
	f.Add(int(VSNewview), int64(0), 0, 0, "", 0, 0, 0, int64(0), 0, []byte(nil))
	f.Add(int(TOBrcv), int64(-5), -1, -2, "<>&\u2028\xff\x01", -3, 0, 0, int64(0), 0, []byte(nil))
	f.Fuzz(func(t *testing.T, k int, tns int64, p, from int, value string, valueSeq, sender, seq int, epoch int64, viewProc int, set []byte) {
		checkEncoding(t, eventOf(Kind(k), tns, p, from, value, valueSeq, sender, seq, epoch, viewProc, set))
	})
}

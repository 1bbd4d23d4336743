package recovery

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/types"
)

// run drives the simulator until every queued write is durable.
func run(tb testing.TB, s *sim.Sim) {
	tb.Helper()
	if err := s.Run(s.Now().Add(time.Second)); err != nil {
		tb.Fatal(err)
	}
}

// tags lists the record tags of a clean image, in log order.
func tags(disk []byte) []byte {
	var out []byte
	eachRecord(disk, func(_ int, p []byte, _ int) { out = append(out, p[0]) })
	return out
}

// TestValueLoggedOncePerNode: at the origin a value's bytes are in the
// image twice — its Bcast and the OrderAppend that ordered it — and the
// Label and Deliver records carry none; the image still replays to the
// value everywhere it is needed.
func TestValueLoggedOncePerNode(t *testing.T) {
	v := types.Value(strings.Repeat("payload-", 8))
	for _, gc := range []bool{false, true} {
		s := sim.New(1)
		w := New(storage.New(s, 0))
		if gc {
			w.SetGroupCommit(0)
		}
		w.View(testView, nil)
		w.Bcast(1, v, nil)
		w.Label(1, labelA, v, nil)
		w.OrderAppend(1, labelA, v, nil)
		w.Deliver(1, labelA, 1, 1, v, nil)
		run(t, s)
		disk := w.Storage().Contents()
		if got := bytes.Count(disk, []byte(v)); got != 2 {
			t.Errorf("group commit %t: the value is in the image %d times, want 2", gc, got)
		}
		want := []byte{recView, recBcastVar, recLabelVar, recOrderAppendVar, recDeliverVar}
		if got := tags(disk); !bytes.Equal(got, want) {
			t.Errorf("group commit %t: tags %v, want %v", gc, got, want)
		}
		snap := Replay(disk)
		if snap.Truncated != "" || snap.Content[labelA] != v || len(snap.Delivered) != 1 || snap.Delivered[0].Value != v {
			t.Errorf("group commit %t: replay %+v", gc, snap)
		}
	}
}

// TestValuedPrefixOverOlderLog: a boot over a log whose establishments
// carried labels alone resumes with a valued prefix short of the order,
// and the WAL writes a Deliver's value exactly while its position lies
// beyond that prefix — until an establishment that keeps no more than the
// prefix, or a checkpoint, covers the order again.
func TestValuedPrefixOverOlderLog(t *testing.T) {
	l := func(i int) types.Label { return types.Label{ID: testView.ID, Seqno: i, Origin: 0} }
	// The older log: order [1 2 3] from a labels-only establishment, and
	// the value of position 1 from its fixed-width Deliver record.
	old := append(viewRec(testView), establishRec(0, []types.Label{l(1), l(2), l(3)}, 1, testView.ID)...)
	old = append(old, rec(func(x *codec.Writer) {
		x.U8(recDeliver)
		x.I32(1)
		x.Label(l(1))
		x.I32(0)
		x.I32(1)
		x.Str("v1")
	})...)

	s := sim.New(1)
	st := storage.New(s, 0)
	st.Append(old, nil)
	run(t, s)
	w := New(st)
	w.SetGroupCommit(0)
	w.Resync(0, Replay(old))
	if w.valued != 1 {
		t.Fatalf("valued = %d after the older log, want 1", w.valued)
	}
	content := ContentMap{l(1): "v1", l(2): "v2", l(3): "v3", l(4): "v4", l(5): "v5"}
	mark := len(tags(old))
	w.Deliver(2, l(2), 0, 2, "v2", nil) // beyond the prefix: carries its value
	w.OrderAppend(4, l(4), "v4", nil)   // the gap at 2..3 keeps the prefix at 1
	w.Establish(3, nil, content, 2, testView.ID, nil)
	w.Deliver(3, l(3), 0, 3, "v3", nil) // still beyond
	w.Establish(1, []types.Label{l(2), l(3), l(5)}, content, 2, testView.ID, nil)
	if w.valued != 4 {
		t.Fatalf("valued = %d after an establishment keeping the valued prefix, want 4", w.valued)
	}
	w.OrderAppend(5, l(4), "v4", nil)
	w.Deliver(4, l(5), 0, 5, "v5", nil) // inside: value-less
	run(t, s)

	disk := st.Contents()
	want := []byte{recDeliverValueVar, recOrderAppendVar, recEstablishVar, recDeliverValueVar,
		recEstablishVar, recOrderAppendVar, recDeliverVar}
	if got := tags(disk)[mark:]; !bytes.Equal(got, want) {
		t.Fatalf("tags after the older log %v, want %v", got, want)
	}
	snap := Replay(disk)
	if snap.Truncated != "" || len(snap.Delivered) != 4 {
		t.Fatalf("replay: truncated %q, %d deliveries", snap.Truncated, len(snap.Delivered))
	}
	for i, d := range snap.Delivered {
		if d.Value != content[d.Label] {
			t.Errorf("delivery %d replays value %q, want %q", i+1, d.Value, content[d.Label])
		}
	}

	// A checkpoint covers the whole order.
	w.valued = 0
	w.Checkpoint(CheckpointState{Order: []types.Label{l(1)}, Content: content, NextConfirm: 1}, nil)
	if w.valued != 1 {
		t.Fatalf("valued = %d after a checkpoint of one label, want 1", w.valued)
	}
}

// TestEstablishAssertsSuffixValues: an establishment whose suffix holds a
// label the content does not bind breaks order ⊆ dom(content), and
// Establish refuses to log it.
func TestEstablishAssertsSuffixValues(t *testing.T) {
	w := New(storage.New(sim.New(1), 0))
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "has no value") {
			t.Fatalf("recover() = %v, want the missing-value panic", r)
		}
	}()
	w.Establish(0, []types.Label{labelA, labelB}, ContentMap{labelA: "a"}, 1, testView.ID, nil)
}

package recovery

import (
	"bytes"
	"strings"
	"testing"
	"time"

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

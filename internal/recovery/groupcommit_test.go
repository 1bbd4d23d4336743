package recovery

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/types"
)

// TestGroupCommitReplayEquivalence: how records coalesce is physical
// layout only. The sample record set written at λ = 0, each record alone
// in its batch frame, and at λ = 2 ms, records coalesced behind the write
// in flight, gives two different images, and each replays to exactly the
// records that were appended.
func TestGroupCommitReplayEquivalence(t *testing.T) {
	alone, aloneObs := sampleDisk(t, 0)
	coalesced, coalescedObs := sampleDisk(t, 2*time.Millisecond)
	if bytes.Equal(alone, coalesced) {
		t.Fatal("the images written at λ = 0 and λ = 2ms are identical")
	}
	if b, r := aloneObs.Counters["wal.batches"], aloneObs.Counters["wal.batch_records"]; b != 9 || r != 9 {
		t.Errorf("λ = 0: %d batches of %d records, want each of the 9 records alone", b, r)
	}
	// Coalescing must actually have happened: 9 records in fewer covering
	// writes.
	if b, r := coalescedObs.Counters["wal.batches"], coalescedObs.Counters["wal.batch_records"]; b <= 0 || b >= r {
		t.Errorf("λ = 2ms: %d batches of %d records: no coalescing", b, r)
	}
	order := []types.Label{labelA, labelB}
	delivered := []DeliveredRecord{{Pos: 1, Label: labelA, From: 1, FromSeq: 1, Value: "a"}}
	pending := []PendingValue{{Seq: 2, Value: "c"}}
	for _, tc := range []struct {
		name string
		disk []byte
	}{{"latency=0s", alone}, {"latency=2ms", coalesced}} {
		t.Run(tc.name, func(t *testing.T) {
			got := Replay(tc.disk)
			if got.Truncated != "" || got.Refused != nil {
				t.Fatalf("clean log truncated %q, refused %v", got.Truncated, got.Refused)
			}
			if got.Records != 9 {
				t.Errorf("Records = %d, want 9", got.Records)
			}
			if !slices.Equal(got.Order, order) {
				t.Errorf("Order = %v, want %v", got.Order, order)
			}
			if !slices.Equal(got.Delivered, delivered) {
				t.Errorf("Delivered = %v, want %v", got.Delivered, delivered)
			}
			if !slices.Equal(got.Pending, pending) {
				t.Errorf("Pending = %v, want %v", got.Pending, pending)
			}
			// The delivery at position 1 raises NextConfirm past the
			// establishment's 1.
			if got.BcastSeq != 2 || got.NextConfirm != 2 || got.Incarnations != 2 {
				t.Errorf("BcastSeq, NextConfirm, Incarnations = %d, %d, %d; want 2, 2, 2",
					got.BcastSeq, got.NextConfirm, got.Incarnations)
			}
		})
	}
}

// TestGroupCommitDurabilityOrdering is the write-ahead contract under
// group commit: a record's done callback runs only once the covering
// batch write is durable — at callback time a replay of the device
// contents must already contain the record — and callbacks run in append
// order.
func TestGroupCommitDurabilityOrdering(t *testing.T) {
	s := sim.New(1)
	st := storage.New(s, 3*time.Millisecond)
	w := New(st)
	w.View(testView, nil)

	const n = 8
	fired := 0
	for i := 0; i < n; i++ {
		i := i
		w.Bcast(i+1, types.Value(fmt.Sprintf("v%d", i)), func() {
			if fired != i {
				t.Errorf("done %d fired after %d callbacks, want %d", i, fired, i)
			}
			fired++
			snap := Replay(st.Contents())
			if snap.Truncated != "" {
				t.Errorf("done %d: durable image torn: %s", i, snap.Truncated)
			}
			if snap.BcastSeq < i+1 {
				t.Errorf("done %d fired before its record was durable (BcastSeq=%d)", i, snap.BcastSeq)
			}
		})
	}
	if err := s.Run(s.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if fired != n {
		t.Fatalf("only %d/%d done callbacks fired", fired, n)
	}
}

// TestGroupCommitCascadeCoalesces: appends issued from inside a done
// callback (the delivery-release cascade) must coalesce behind the still-
// accounted flight rather than each triggering its own covering write.
func TestGroupCommitCascadeCoalesces(t *testing.T) {
	s := sim.New(1)
	st := storage.New(s, 3*time.Millisecond)
	w := New(st)
	reg := obs.New()
	w.Instrument(reg)

	w.Bcast(1, "first", func() {
		// Cascade: these all arrive while the first batch's flight is
		// still accounted, so they must land in ONE follow-up batch.
		for i := 0; i < 5; i++ {
			w.Bcast(i+2, types.Value(fmt.Sprintf("c%d", i)), nil)
		}
	})
	if err := s.Run(s.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["wal.batches"]; got != 2 {
		t.Fatalf("wal.batches = %d, want 2 (opener + one cascade batch)", got)
	}
	if got := Replay(st.Contents()); got.Truncated != "" || got.BcastSeq != 6 {
		t.Fatalf("cascade records lost: %+v", got)
	}
}

// TestGroupCommitTornBatchThroughDevice: a crash tearing the covering
// write must discard the batch WHOLE — none of its records survive, the
// prior durable prefix replays cleanly, and no done callback for the torn
// batch ever fired.
func TestGroupCommitTornBatchThroughDevice(t *testing.T) {
	s := sim.New(1)
	st := storage.New(s, 5*time.Millisecond)
	w := New(st)
	w.View(testView, nil)
	s.RunFor(20 * time.Millisecond) // view batch durable

	acked := 0
	for i := 0; i < 4; i++ {
		w.Bcast(i+1, types.Value(fmt.Sprintf("v%d", i)), func() { acked++ })
	}
	s.RunFor(time.Millisecond) // covering write in flight
	st.Drop()
	s.RunFor(50 * time.Millisecond)

	if acked != 0 {
		t.Fatalf("%d torn-batch records were acknowledged", acked)
	}
	snap := Replay(st.Contents())
	if snap.Truncated == "" {
		t.Fatalf("torn batch not detected: %+v", snap)
	}
	if snap.Records != 1 || !snap.HasView || snap.BcastSeq != 0 {
		t.Fatalf("want exactly the durable view record, got %+v", snap)
	}
	// The kept prefix is a clean log (the FuzzReplay invariant, device
	// edition).
	if got := Replay(st.Contents()[:snap.TruncatedAt]); got.Truncated != "" || got.Records != 1 {
		t.Fatalf("clean prefix does not replay cleanly: %+v", got)
	}
}

// TestGroupCommitCrashDropsOpenBatch: a crash with a batch open behind an
// in-flight write loses both — the torn write reaches the image as
// nothing here, and the open batch is never sealed, because the crash
// suppressed the completion that would have flushed it. After Resync the
// next incarnation's append writes at once and is durable.
func TestGroupCommitCrashDropsOpenBatch(t *testing.T) {
	s := sim.New(1)
	st := storage.New(s, 2*time.Millisecond)
	st.TornPrefix = func(int) int { return 0 }
	w := New(st)
	w.Bcast(1, "in flight", nil)
	w.Bcast(2, "dead", nil) // opens a batch behind the in-flight write
	s.RunFor(time.Millisecond)
	st.Drop()
	s.RunFor(10 * time.Millisecond) // well past both writes' latency
	if st.Size() != 0 {
		t.Fatalf("the crashed incarnation's records reached the image after the crash: %d bytes", st.Size())
	}

	w.Resync(0, Replay(st.Contents()))
	w.Bcast(1, "live", nil)
	s.RunFor(5 * time.Millisecond)
	got := Replay(st.Contents())
	if got.Truncated != "" || len(got.Pending) != 1 || got.Pending[0].Value != "live" {
		t.Fatalf("next incarnation's append: %+v", got)
	}
}

// TestSetGroupCommitIsNoOp: every WAL group-commits from New, so the
// deprecated SetGroupCommit changes nothing — the sample record set written
// with no call, with a zero window and with a 1 ms window gives
// byte-identical images.
func TestSetGroupCommitIsNoOp(t *testing.T) {
	want, _ := sampleDisk(t, 2*time.Millisecond)
	for _, window := range []time.Duration{0, time.Millisecond} {
		got, _ := sampleDisk(t, 2*time.Millisecond, func(w *WAL) { w.SetGroupCommit(window) })
		if !bytes.Equal(got, want) {
			t.Errorf("SetGroupCommit(%v): image of %d bytes differs from the %d written without the call", window, len(got), len(want))
		}
	}
}

// TestGroupCommitCheckpointCompaction: the checkpoint barrier must keep
// compaction offsets on physical frame boundaries even when surrounding
// records ride in batches — after TruncatePrefix the suffix must replay
// from the checkpoint.
func TestGroupCommitCheckpointCompaction(t *testing.T) {
	s := sim.New(1)
	st := storage.New(s, time.Millisecond)
	w := New(st)
	w.View(testView, nil)
	w.Bcast(1, "a", nil)
	s.RunFor(20 * time.Millisecond)

	w.Checkpoint(CheckpointState{
		HasView: true, View: testView, NextConfirm: 1,
		Pending: []PendingValue{{Seq: 1, Value: "a"}}, BcastSeq: 1,
	}, nil)
	w.Bcast(2, "b", nil)
	s.RunFor(20 * time.Millisecond)

	img := st.Contents()
	got := Replay(img)
	if got.Truncated != "" || got.Checkpoints != 1 {
		t.Fatalf("batched checkpoint replay: %+v", got)
	}
	at := got.CheckpointAt
	// Physically discard the prefix: the suffix alone must replay from the
	// checkpoint, offsets shifted, nothing torn — i.e. the checkpoint
	// frame starts exactly at `at`.
	suffix := img[at:]
	from := Replay(suffix)
	if from.Truncated != "" {
		t.Fatalf("compacted suffix torn: %s", from.Truncated)
	}
	if from.BcastSeq != 2 || !from.HasView || from.View.ID != testView.ID {
		t.Fatalf("compacted suffix lost state: %+v", from)
	}
}

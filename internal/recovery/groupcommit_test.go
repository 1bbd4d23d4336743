package recovery

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/types"
)

// gcDisk writes the same record set as sampleDisk through a group-commit
// WAL on a device with real write latency, so records coalesce into batch
// frames. The durable image is physically different from sampleDisk's but
// must replay to the same logical snapshot.
func gcDisk(tb testing.TB) ([]byte, *obs.Snapshot) {
	tb.Helper()
	s := sim.New(1)
	st := storage.New(s, 2*time.Millisecond)
	w := New(st)
	reg := obs.New()
	w.Instrument(reg)
	w.SetGroupCommit(0)
	w.View(testView, nil)
	w.Establish(0, []types.Label{labelA}, ContentMap{labelA: "a"}, 1, testView.ID, nil)
	w.Bcast(1, "a", nil)
	w.Label(1, labelA, "a", nil)
	w.OrderAppend(2, labelB, "b", nil)
	w.Bcast(2, "c", nil)
	w.Deliver(1, labelA, 1, 1, "a", nil)
	w.Recovered(1, nil)
	w.Recovered(2, nil)
	if err := s.Run(s.Now().Add(time.Second)); err != nil {
		tb.Fatal(err)
	}
	return st.Contents(), reg.Snapshot()
}

// TestGroupCommitReplayEquivalence: a batched log is a different physical
// layout for the same history — replay must produce the identical logical
// snapshot the one-frame-per-record log produces.
func TestGroupCommitReplayEquivalence(t *testing.T) {
	loose := Replay(sampleDisk(t))
	// The WAL batches with a zero window only (SetGroupCommit rejects any
	// other), so that is the one case.
	t.Run("window=0s", func(t *testing.T) {
		disk, snap := gcDisk(t)
		got := Replay(disk)
		if got.Truncated != "" {
			t.Fatalf("clean batched log truncated: %s", got.Truncated)
		}
		if got.Records != loose.Records {
			t.Errorf("Records = %d, want %d", got.Records, loose.Records)
		}
		if len(got.Order) != len(loose.Order) || got.Order[0] != labelA || got.Order[1] != labelB {
			t.Errorf("Order = %v, want %v", got.Order, loose.Order)
		}
		if len(got.Delivered) != 1 || got.Delivered[0] != loose.Delivered[0] {
			t.Errorf("Delivered = %v, want %v", got.Delivered, loose.Delivered)
		}
		if got.NextConfirm != loose.NextConfirm || got.BcastSeq != loose.BcastSeq ||
			got.Incarnations != loose.Incarnations {
			t.Errorf("scalars diverge: got %+v want %+v", got, loose)
		}
		// Coalescing must actually have happened: 9 records in fewer covering
		// writes.
		if b := snap.Counters["wal.batches"]; b <= 0 || b >= snap.Counters["wal.batch_records"] {
			t.Errorf("batches = %d of %d records: no coalescing", b, snap.Counters["wal.batch_records"])
		}
	})
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
	w.SetGroupCommit(0)
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
	w.SetGroupCommit(0)

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
	w.SetGroupCommit(0)
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
	w.SetGroupCommit(0)
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

// TestGroupCommitRejectsWindow: a batch is never held back on an idle
// device; SetGroupCommit takes no window but 0.
func TestGroupCommitRejectsWindow(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("SetGroupCommit(1ms) did not panic")
		}
	}()
	New(storage.New(sim.New(1), 0)).SetGroupCommit(time.Millisecond)
}

// TestGroupCommitCheckpointCompaction: the checkpoint barrier must keep
// compaction offsets on physical frame boundaries even when surrounding
// records ride in batches — after TruncatePrefix the suffix must replay
// from the checkpoint.
func TestGroupCommitCheckpointCompaction(t *testing.T) {
	s := sim.New(1)
	st := storage.New(s, time.Millisecond)
	w := New(st)
	w.SetGroupCommit(0)
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

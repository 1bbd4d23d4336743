package recovery

import (
	"bytes"
	"maps"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/vstoto"
)

// ckptState is the sample checkpoint used across these tests: one
// delivered value, one pending submission, incarnation 1.
func ckptState() CheckpointState {
	return CheckpointState{
		HasView:        true,
		View:           testView,
		Order:          []types.Label{labelA},
		Content:        ContentMap{labelA: "a"},
		NextConfirm:    2,
		HighPrimary:    testView.ID,
		DeliveredCount: 1,
		Pending:        []PendingValue{{Seq: 2, Value: "c"}},
		BcastSeq:       2,
		Incarnations:   1,
	}
}

// checkpointDisk builds: prefix records, checkpoint C1, interlude,
// checkpoint C2, suffix — returning the durable image and the two
// checkpoints' logical offsets.
func checkpointDisk(tb testing.TB) (disk []byte, c1, c2 int) {
	tb.Helper()
	s := sim.New(1)
	w := New(storage.New(s, 0))
	w.View(testView, nil)
	w.Establish(0, []types.Label{labelA}, ContentMap{labelA: "a"}, 1, testView.ID, nil)
	w.Bcast(1, "a", nil)
	w.Label(1, labelA, "a", nil)
	w.Bcast(2, "c", nil)
	w.Deliver(1, labelA, 1, 1, "a", nil)

	c1 = w.EndOffset()
	w.Checkpoint(ckptState(), nil)

	w.OrderAppend(2, labelB, "b", nil)
	w.Deliver(2, labelB, 2, 1, "b", nil)

	cs2 := ckptState()
	cs2.Order = []types.Label{labelA, labelB}
	cs2.Content = ContentMap{labelA: "a", labelB: "b"}
	cs2.NextConfirm = 3
	cs2.DeliveredCount = 2
	c2 = w.EndOffset()
	w.Checkpoint(cs2, nil)

	w.Recovered(2, nil)
	if err := s.Run(s.Now().Add(time.Second)); err != nil {
		tb.Fatal(err)
	}
	return w.Storage().Contents(), c1, c2
}

func TestCheckpointRoundTrip(t *testing.T) {
	disk, c1, c2 := checkpointDisk(t)
	s := Replay(disk)
	if s.Truncated != "" {
		t.Fatalf("clean log truncated: %s", s.Truncated)
	}
	if s.Checkpoints != 2 || s.CheckpointAt != c2 || s.PrevCheckpointAt != c1 {
		t.Errorf("checkpoints = %d at %d/%d, want 2 at %d/%d",
			s.Checkpoints, s.CheckpointAt, s.PrevCheckpointAt, c2, c1)
	}
	// Final state is the second checkpoint plus the suffix.
	if len(s.Order) != 2 || s.Order[0] != labelA || s.Order[1] != labelB {
		t.Errorf("Order = %v, want [%v %v]", s.Order, labelA, labelB)
	}
	want := []DeliveredRecord{
		{Pos: 1, Label: labelA, From: 1, FromSeq: 1, Value: "a"},
		{Pos: 2, Label: labelB, From: 2, FromSeq: 1, Value: "b"},
	}
	if len(s.Delivered) != 2 || s.Delivered[0] != want[0] || s.Delivered[1] != want[1] {
		t.Errorf("Delivered = %v, want %v", s.Delivered, want)
	}
	if s.NextConfirm != 3 || s.BcastSeq != 2 || s.Incarnations != 2 {
		t.Errorf("NextConfirm=%d BcastSeq=%d Incarnations=%d, want 3/2/2",
			s.NextConfirm, s.BcastSeq, s.Incarnations)
	}
	if len(s.Pending) != 1 || s.Pending[0] != (PendingValue{Seq: 2, Value: "c"}) {
		t.Errorf("Pending = %v, want [{2 c}]", s.Pending)
	}
	if !s.HasView || s.View.ID != testView.ID {
		t.Errorf("View = %v (has=%v), want %v", s.View, s.HasView, testView)
	}
}

// TestCheckpointCorruptFallsBack flips a byte inside the latest
// checkpoint record: replay must truncate there and recover from the
// previous checkpoint plus the records between them — never from a
// half-read checkpoint.
func TestCheckpointCorruptFallsBack(t *testing.T) {
	disk, c1, c2 := checkpointDisk(t)
	bad := append([]byte(nil), disk...)
	bad[c2+12] ^= 0xff // inside C2's payload: CRC mismatch
	s := Replay(bad)
	if s.Truncated == "" || s.TruncatedAt != c2 {
		t.Fatalf("TruncatedAt = %d (%q), want truncation at %d", s.TruncatedAt, s.Truncated, c2)
	}
	if s.Checkpoints != 1 || s.CheckpointAt != c1 || s.PrevCheckpointAt != -1 {
		t.Errorf("checkpoints = %d at %d/%d, want 1 at %d/-1",
			s.Checkpoints, s.CheckpointAt, s.PrevCheckpointAt, c1)
	}
	// State as of just before C2: C1 plus the interlude records.
	if len(s.Order) != 2 || len(s.Delivered) != 2 {
		t.Errorf("Order=%v Delivered=%v, want both length 2", s.Order, s.Delivered)
	}
	if s.Incarnations != 1 {
		t.Errorf("Incarnations = %d, want 1 (the post-C2 Recovered is gone)", s.Incarnations)
	}
}

// TestCheckpointTornTail cuts the log mid-checkpoint (the torn-write
// case): same fallback as corruption.
func TestCheckpointTornTail(t *testing.T) {
	disk, c1, c2 := checkpointDisk(t)
	s := Replay(disk[:c2+5])
	if s.Truncated == "" || s.TruncatedAt != c2 {
		t.Fatalf("TruncatedAt = %d (%q), want truncation at %d", s.TruncatedAt, s.Truncated, c2)
	}
	if s.Checkpoints != 1 || s.CheckpointAt != c1 {
		t.Errorf("checkpoints = %d at %d, want 1 at %d", s.Checkpoints, s.CheckpointAt, c1)
	}
}

// TestCheckpointValidation rejects checkpoints whose state is internally
// inconsistent instead of installing them.
func TestCheckpointValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*CheckpointState)
	}{
		{"delivered beyond order", func(cs *CheckpointState) { cs.DeliveredCount = 5 }},
		{"negative delivered", func(cs *CheckpointState) { cs.DeliveredCount = -1 }},
		{"nextconfirm zero", func(cs *CheckpointState) { cs.NextConfirm = 0 }},
		{"negative bcastseq", func(cs *CheckpointState) { cs.BcastSeq = -1 }},
		{"pending seq zero", func(cs *CheckpointState) { cs.Pending = []PendingValue{{Seq: 0, Value: "x"}} }},
		{"view floor lost", func(cs *CheckpointState) { cs.HasView = false }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New(1)
			w := New(storage.New(s, 0))
			w.View(testView, nil) // establishes the view floor
			cs := ckptState()
			tc.mutate(&cs)
			off := w.EndOffset()
			w.Checkpoint(cs, nil)
			if err := s.Run(s.Now().Add(time.Second)); err != nil {
				t.Fatal(err)
			}
			snap := Replay(w.Storage().Contents())
			if snap.Truncated == "" || snap.TruncatedAt != off {
				t.Errorf("invalid checkpoint accepted: TruncatedAt=%d (%q), want rejection at %d",
					snap.TruncatedAt, snap.Truncated, off)
			}
		})
	}
}

// TestCheckpointBehindInFlightAppend enqueues a checkpoint on a
// latency-bearing device while earlier appends are still in flight: the
// enqueue-time offset bookkeeping must match the eventual disk layout
// (the single write head serializes FIFO), so replay finds the
// checkpoint exactly where the WAL said it would be.
func TestCheckpointBehindInFlightAppend(t *testing.T) {
	s := sim.New(1)
	w := New(storage.New(s, time.Millisecond))
	w.View(testView, nil)
	w.Establish(0, []types.Label{labelA}, ContentMap{labelA: "a"}, 1, testView.ID, nil)
	w.Deliver(1, labelA, 1, 1, "a", nil)
	c1 := w.EndOffset() // nothing durable yet: offsets are enqueue-time
	cs := ckptState()
	cs.Pending = nil
	cs.BcastSeq = 0
	w.Checkpoint(cs, nil)
	w.OrderAppend(2, labelB, "b", nil)
	if got := w.Storage().Size(); got != 0 {
		t.Fatalf("device already has %d durable bytes before the sim ran", got)
	}
	if err := s.Run(s.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	snap := Replay(w.Storage().Contents())
	if snap.Truncated != "" {
		t.Fatalf("clean log truncated: %s", snap.Truncated)
	}
	if snap.Checkpoints != 1 || snap.CheckpointAt != c1 {
		t.Errorf("checkpoint replayed at %d (count %d), want 1 at %d",
			snap.CheckpointAt, snap.Checkpoints, c1)
	}
	if len(snap.Order) != 2 {
		t.Errorf("Order = %v, want the checkpoint's label plus the queued append", snap.Order)
	}
}

// TestTornCheckpointNeverTruncates crashes the owner while the second
// checkpoint is under the write head: its completion is suppressed, so
// compaction must not fire — a checkpoint that might be torn can never
// have discarded the prefix its own corruption falls back to.
func TestTornCheckpointNeverTruncates(t *testing.T) {
	s := sim.New(1)
	st := storage.New(s, time.Millisecond)
	w := New(st)
	w.SetCompact(true)
	w.View(testView, nil)
	w.Establish(0, []types.Label{labelA}, ContentMap{labelA: "a"}, 1, testView.ID, nil)
	w.Deliver(1, labelA, 1, 1, "a", nil)
	cs := ckptState()
	cs.Pending = nil
	cs.BcastSeq = 0
	w.Checkpoint(cs, nil)
	if err := s.Run(s.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}

	w.OrderAppend(2, labelB, "b", nil)
	if err := s.Run(s.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	c2 := w.EndOffset()
	cs2 := cs
	cs2.Order = []types.Label{labelA, labelB}
	cs2.Content = ContentMap{labelA: "a", labelB: "b"}
	w.Checkpoint(cs2, nil)
	// Half the write latency: C2 is under the head, not durable.
	if err := s.Run(s.Now().Add(time.Millisecond / 2)); err != nil {
		t.Fatal(err)
	}
	st.Drop()
	if st.Base() != 0 {
		t.Fatalf("torn checkpoint compacted the log: Base = %d", st.Base())
	}
	snap := Replay(st.Contents())
	if snap.Truncated == "" || snap.TruncatedAt != c2 {
		t.Fatalf("TruncatedAt = %d (%q), want the torn checkpoint at %d",
			snap.TruncatedAt, snap.Truncated, c2)
	}
	// Fallback: the first checkpoint plus the interlude survives.
	if snap.Checkpoints != 1 || len(snap.Order) != 2 {
		t.Errorf("fallback state: checkpoints=%d order=%v", snap.Checkpoints, snap.Order)
	}
}

// TestCheckpointCompaction arms compaction and verifies the second
// checkpoint's durability discards the prefix before the first — and
// that the retained (rebased) log still replays to the same state.
func TestCheckpointCompaction(t *testing.T) {
	s := sim.New(1)
	st := storage.New(s, 0)
	w := New(st)
	w.SetCompact(true)
	w.View(testView, nil)
	w.Establish(0, []types.Label{labelA}, ContentMap{labelA: "a"}, 1, testView.ID, nil)
	w.Bcast(1, "a", nil)
	w.Label(1, labelA, "a", nil)
	w.Deliver(1, labelA, 1, 1, "a", nil)

	c1 := w.EndOffset()
	w.Checkpoint(ckptState(), nil)
	if err := s.Run(s.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	// First checkpoint: no previous one, nothing to discard.
	if st.Base() != 0 {
		t.Fatalf("Base after first checkpoint = %d, want 0", st.Base())
	}

	w.OrderAppend(2, labelB, "b", nil)
	cs2 := ckptState()
	cs2.Order = []types.Label{labelA, labelB}
	cs2.Content = ContentMap{labelA: "a", labelB: "b"}
	c2 := w.EndOffset()
	w.Checkpoint(cs2, nil)
	if err := s.Run(s.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	// Second checkpoint durable: prefix before the FIRST checkpoint is
	// gone, so the retained log still starts at a valid checkpoint.
	if st.Base() != c1 {
		t.Fatalf("Base after second checkpoint = %d, want %d", st.Base(), c1)
	}
	snap := Replay(st.Contents())
	if snap.Truncated != "" {
		t.Fatalf("rebased log truncated: %s", snap.Truncated)
	}
	if snap.Checkpoints != 2 || len(snap.Order) != 2 {
		t.Errorf("rebased replay: checkpoints=%d order=%v", snap.Checkpoints, snap.Order)
	}
	// Offsets within the retained image; Resync maps them back to
	// logical ones.
	if got := snap.CheckpointAt + st.Base(); got != c2 {
		t.Errorf("latest checkpoint at logical %d, want %d", got, c2)
	}
}

// TestCheckpointFromProcMatchesMap pins the checkpoint record bytes a
// vstoto.Proc's run-based content writes: the same as the map holding the
// same pairs, extras (labeled values not yet ordered, across two views and
// origins) included, and the record replays to that map.
func TestCheckpointFromProcMatchesMap(t *testing.T) {
	procs := types.RangeProcSet(3)
	qs := types.Majorities{Universe: procs}
	p := vstoto.NewProc(0, qs, procs)
	for _, a := range []types.Value{"a", "b", "c"} {
		p.Bcast(a)
		p.Label()
	}
	peer := func(s int) types.Label { return types.Label{ID: types.G0(), Seqno: s, Origin: 2} }
	p.GprcvValue(vstoto.LabeledValue{L: peer(1), A: "x"})
	p.GprcvValue(vstoto.LabeledValue{L: types.Label{ID: types.G0(), Seqno: 1, Origin: 0}, A: "a"})
	p.MergeContent(vstoto.RunsOf(map[types.Label]types.Value{
		{ID: types.G0(), Seqno: 2, Origin: 2}: "y",
		{ID: types.G0(), Seqno: 3, Origin: 2}: "z",
	}))
	m := ContentMap{}
	p.RangeContent(func(l types.Label, a types.Value) bool {
		m[l] = a
		return true
	})
	if len(m) != 6 || len(p.Order) != 2 {
		t.Fatalf("content %v, order %v", m, p.Order)
	}
	image := func(c Content) []byte {
		s := sim.New(1)
		w := New(storage.New(s, 0))
		cs := ckptState()
		cs.Order, cs.Content, cs.DeliveredCount = p.Order, c, 0
		w.Checkpoint(cs, nil)
		if err := s.Run(s.Now().Add(time.Second)); err != nil {
			t.Fatal(err)
		}
		return w.Storage().Contents()
	}
	got, want := image(p), image(m)
	if !bytes.Equal(got, want) {
		t.Fatalf("checkpoint from the runs differs from the map's:\n%x\n%x", got, want)
	}
	if snap := Replay(got); snap.Truncated != "" || !maps.Equal(snap.Content, m) {
		t.Fatalf("replayed content %v (%s), want %v", snap.Content, snap.Truncated, m)
	}
}

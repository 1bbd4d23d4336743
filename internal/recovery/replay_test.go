package recovery

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"slices"
	"testing"
	"time"

	"repro/internal/codec"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/types"
)

var (
	testView = types.View{ID: types.ViewID{Epoch: 2, Proc: 1}, Set: types.RangeProcSet(3)}
	labelA   = types.Label{ID: testView.ID, Seqno: 1, Origin: 1}
	labelB   = types.Label{ID: testView.ID, Seqno: 2, Origin: 2}
	labelC   = types.Label{ID: testView.ID, Seqno: 3, Origin: 0}
)

// sampleDisk writes one record of every type through a WAL on a device
// of write latency λ, one record per millisecond of virtual time, and
// returns the durable image and the WAL's counters. At λ = 0 each record
// finds the device idle and rides alone in its batch frame; at λ = 2 ms
// records coalesce behind the write in flight. configure, if any, runs on
// the fresh WAL before the first append.
func sampleDisk(tb testing.TB, latency time.Duration, configure ...func(*WAL)) ([]byte, *obs.Snapshot) {
	tb.Helper()
	s := sim.New(1)
	w := New(storage.New(s, latency))
	reg := obs.New()
	w.Instrument(reg)
	for _, c := range configure {
		c(w)
	}
	for _, appendRec := range []func(){
		func() { w.View(testView, nil) },
		func() { w.Establish(0, []types.Label{labelA}, ContentMap{labelA: "a"}, 1, testView.ID, nil) },
		func() { w.Bcast(1, "a", nil) },
		func() { w.Label(1, labelA, "a", nil) },
		func() { w.OrderAppend(2, labelB, "b", nil) },
		func() { w.Bcast(2, "c", nil) }, // never labeled: must come back as pending
		func() { w.Deliver(1, labelA, 1, 1, "a", nil) },
		func() { w.Recovered(1, nil) },
		func() { w.Recovered(2, nil) },
	} {
		appendRec()
		if err := s.RunFor(time.Millisecond); err != nil {
			tb.Fatal(err)
		}
	}
	if err := s.Run(s.Now().Add(time.Second)); err != nil {
		tb.Fatal(err)
	}
	return w.Storage().Contents(), reg.Snapshot()
}

func TestReplayRoundTrip(t *testing.T) {
	disk, _ := sampleDisk(t, 0)
	s := Replay(disk)
	if s.Truncated != "" {
		t.Fatalf("clean log truncated: %s", s.Truncated)
	}
	if s.Records != 9 {
		t.Errorf("Records = %d, want 9", s.Records)
	}
	if !s.HasView || s.View.ID != testView.ID || !s.View.Set.Equal(testView.Set) {
		t.Errorf("View = %v %v, want %v", s.View, s.HasView, testView)
	}
	if s.ViewFloor() != testView.ID {
		t.Errorf("ViewFloor = %v, want %v", s.ViewFloor(), testView.ID)
	}
	if len(s.Order) != 2 || s.Order[0] != labelA || s.Order[1] != labelB {
		t.Errorf("Order = %v, want [%v %v]", s.Order, labelA, labelB)
	}
	// Establish said nextconfirm 1, but a durable delivery at position 1
	// raises the floor past it.
	if s.NextConfirm != 2 {
		t.Errorf("NextConfirm = %d, want 2", s.NextConfirm)
	}
	if s.HighPrimary != testView.ID {
		t.Errorf("HighPrimary = %v, want %v", s.HighPrimary, testView.ID)
	}
	if s.Content[labelA] != "a" || s.Content[labelB] != "b" {
		t.Errorf("Content = %v", s.Content)
	}
	want := DeliveredRecord{Pos: 1, Label: labelA, From: 1, FromSeq: 1, Value: "a"}
	if len(s.Delivered) != 1 || s.Delivered[0] != want {
		t.Errorf("Delivered = %v, want [%+v]", s.Delivered, want)
	}
	if len(s.Pending) != 1 || s.Pending[0] != (PendingValue{Seq: 2, Value: "c"}) {
		t.Errorf("Pending = %v, want [{2 c}]", s.Pending)
	}
	if s.BcastSeq != 2 {
		t.Errorf("BcastSeq = %d, want 2", s.BcastSeq)
	}
	if s.Incarnations != 2 {
		t.Errorf("Incarnations = %d, want 2", s.Incarnations)
	}
	if s.TruncatedAt != len(disk) {
		t.Errorf("TruncatedAt = %d, want %d", s.TruncatedAt, len(disk))
	}
}

// frame wraps a payload as one frame, [len | crc32(payload) | payload],
// under the header the WAL writes.
func frame(payload []byte) []byte {
	buf := append(make([]byte, frameHeader, frameHeader+len(payload)), payload...)
	putFrameHeader(buf)
	return buf
}

// rec builds one framed record from a payload-writer: a loose frame, which
// the WAL does not write but Replay still reads (the older image holds them).
func rec(parts func(x *codec.Writer)) []byte {
	return frame(payload(parts))
}

func viewRec(v types.View) []byte {
	return rec(func(x *codec.Writer) { x.U8(recView); x.View(v) })
}

// establishRec builds an establishment record: keep and the suffix, each
// label with the value fmt.Sprint(label).
func establishRec(keep int, labels []types.Label, next int, high types.ViewID) []byte {
	return rec(func(x *codec.Writer) {
		x.U8(recEstablishVar)
		x.Uvarint(uint64(keep))
		x.Uvarint(uint64(len(labels)))
		for _, l := range labels {
			x.VarLabel(l)
			x.VarStr(fmt.Sprint(l))
		}
		x.Varint(int64(next))
		x.VarViewID(high)
	})
}

// deliverRec builds a deliver record of label l at position pos.
func deliverRec(pos int, l types.Label) []byte {
	return rec(func(x *codec.Writer) {
		x.U8(recDeliverVar)
		x.Varint(int64(pos))
		x.VarLabel(l)
		x.Varint(int64(l.Origin))
		x.Varint(int64(l.Seqno))
	})
}

// deltaDisk is a log whose second establishment keeps a prefix of the
// order: view, establish [A B], deliver A, establish keep 1 + [C]. It
// returns the image and the offset of that last record's frame.
func deltaDisk() (disk []byte, deltaAt int) {
	disk = append(disk, viewRec(testView)...)
	disk = append(disk, establishRec(0, []types.Label{labelA, labelB}, 1, testView.ID)...)
	disk = append(disk, deliverRec(1, labelA)...)
	deltaAt = len(disk)
	return append(disk, establishRec(1, []types.Label{labelC}, 2, testView.ID)...), deltaAt
}

// TestEstablishSuffixRoundTrip: an establishment keeps the first keep
// labels of the order the log replays to — order appends included — and
// replaces the rest with its suffix: keep 0 rewrites the whole order, a
// mid-order keep cuts it, keep = len(order) only appends.
func TestEstablishSuffixRoundTrip(t *testing.T) {
	l := func(i int) types.Label { return types.Label{ID: testView.ID, Seqno: i, Origin: 0} }
	cases := []struct {
		name   string
		keep   int
		suffix []types.Label
		want   []types.Label
	}{
		{"keep 0", 0, []types.Label{l(7), l(8)}, []types.Label{l(7), l(8)}},
		{"keep mid-order", 1, []types.Label{l(9)}, []types.Label{l(1), l(9)}},
		{"keep whole order", 3, []types.Label{l(4)}, []types.Label{l(1), l(2), l(3), l(4)}},
		{"keep whole order, no suffix", 3, nil, []types.Label{l(1), l(2), l(3)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := sim.New(1)
			w := New(storage.New(s, 0))
			content := ContentMap{}
			for i := 1; i <= 9; i++ {
				content[l(i)] = types.Value(fmt.Sprint("v", i))
			}
			w.View(testView, nil)
			w.Establish(0, []types.Label{l(1), l(2)}, content, 1, testView.ID, nil)
			w.OrderAppend(3, l(3), "v3", nil)
			high := types.ViewID{Epoch: 3, Proc: 0}
			w.Establish(tc.keep, tc.suffix, content, 2, high, nil)
			if err := s.Run(s.Now().Add(time.Second)); err != nil {
				t.Fatal(err)
			}
			snap := Replay(w.Storage().Contents())
			if snap.Truncated != "" || snap.Records != 4 {
				t.Fatalf("clean log: truncated %q after %d records", snap.Truncated, snap.Records)
			}
			if !slices.Equal(snap.Order, tc.want) {
				t.Errorf("Order = %v, want %v", snap.Order, tc.want)
			}
			if snap.NextConfirm != 2 || snap.HighPrimary != high {
				t.Errorf("NextConfirm, HighPrimary = %d, %v; want 2, %v", snap.NextConfirm, snap.HighPrimary, high)
			}
		})
	}
}

// batchFrame wraps record payloads as one group-commit batch frame:
// [len | crc | recBatchVar [uvarint sublen | payload]...]. The CRC covers
// the whole batch body, making the batch the atom of durability.
func batchFrame(payloads ...[]byte) []byte {
	body := []byte{recBatchVar}
	for _, p := range payloads {
		body = binary.AppendUvarint(body, uint64(len(p)))
		body = append(body, p...)
	}
	return frame(body)
}

// payload builds one record payload (unframed).
func payload(parts func(x *codec.Writer)) []byte {
	x := codec.NewWriter()
	parts(x)
	return append([]byte(nil), x.Data()...)
}

func TestReplayTruncatesCorruptTail(t *testing.T) {
	// The clean prefix is what the WAL writes: a batch frame.
	good := batchFrame(payload(func(x *codec.Writer) { x.U8(recView); x.View(testView) }))
	older := types.View{ID: types.ViewID{Epoch: 1, Proc: 0}, Set: types.RangeProcSet(3)}

	corrupt := func(mutate func([]byte) []byte) []byte {
		return mutate(rec(func(x *codec.Writer) { x.U8(recRecovered); x.I32(1) }))
	}
	type tailCase struct {
		name   string
		tail   []byte
		reason string // substring of the truncation reason
	}
	// Frame-level and batch-structure corruption.
	cases := []tailCase{
		{"torn frame header", []byte{1, 2, 3}, "torn frame header"},
		{"zero length", corrupt(func(b []byte) []byte { return append(make([]byte, 8), b[8:]...) }), "torn record"},
		{"oversized length", corrupt(func(b []byte) []byte { b[0] = 0xff; return b }), "torn record"},
		{"torn payload", corrupt(func(b []byte) []byte { return b[:len(b)-2] }), "torn record"},
		{"checksum mismatch", corrupt(func(b []byte) []byte { b[len(b)-1] ^= 1; return b }), "checksum mismatch"},
		{"deliver label off order", batchFrame(
			establishRec(0, []types.Label{labelA}, 1, testView.ID)[frameHeader:],
			deliverRec(1, labelB)[frameHeader:],
		), "not at order position"},
		// Group-commit batch tears: the batch is the atom of durability,
		// so any tear inside one discards it whole while the prefix
		// before the batch frame replays untouched.
		{"empty batch", batchFrame(), "empty batch record"},
		{"mid-batch torn write", batchFrame(
			payload(func(x *codec.Writer) { x.U8(recRecovered); x.I32(1) }),
			payload(func(x *codec.Writer) { x.U8(recRecovered); x.I32(2) }),
		)[:12], "torn record"},
		{"label of a submission already labeled", batchFrame(
			payload(func(x *codec.Writer) { x.U8(recBcastVar); x.Varint(1); x.VarStr("a") }),
			payload(func(x *codec.Writer) { x.U8(recLabelVar); x.Varint(1); x.VarLabel(labelA) }),
			payload(func(x *codec.Writer) { x.U8(recLabelVar); x.Varint(1); x.VarLabel(labelB) }),
		), "no pending value"},
		{"compact batch torn sub length", frame([]byte{recBatchVar, 0x80}), "torn batch sub-record length"},
		{"compact batch overlong sub length", frame([]byte{recBatchVar, 0x81, 0x00, recRecovered}), "torn batch sub-record length"},
		{"compact batch bad sub length", frame([]byte{recBatchVar, 100, 1, 2, 3}), "bad batch sub-record"},
		{"compact batch nested", batchFrame([]byte{recBatchVar}), "nested batch record"},
		{"compact batch mid-batch bad record", batchFrame(
			payload(func(x *codec.Writer) { x.U8(recRecovered); x.I32(1) }),
			payload(func(x *codec.Writer) { x.U8(42) }),
		), "unknown record tag"},
	}
	// Record-level corruption: each tail is one record that is bad in
	// itself, so it is refused alone in a loose frame and as the sole
	// sub-record of a batch frame alike.
	records := []tailCase{
		{"trailing bytes in record", rec(func(x *codec.Writer) { x.U8(recRecovered); x.I32(1); x.U8(7) }), "trailing bytes"},
		{"unknown tag", rec(func(x *codec.Writer) { x.U8(42) }), "unknown record tag"},
		{"non-monotonic view", viewRec(older), "non-monotonic view record"},
		{"bad bcast seq", rec(func(x *codec.Writer) { x.U8(recBcastVar); x.Varint(0); x.VarStr("a") }), "bad bcast record"},
		{"bad recovery marker", rec(func(x *codec.Writer) { x.U8(recRecovered); x.I32(0) }), "bad recovery marker"},
		{"deliver out of sequence", deliverRec(2, labelA), "deliver record at position 2, want 1"},
		// Value-less records take their value from what replay holds.
		{"value-less label with no pending submission", rec(func(x *codec.Writer) {
			x.U8(recLabelVar)
			x.Varint(1)
			x.VarLabel(labelA)
		}), "no pending value"},
		{"overlong varint", rec(func(x *codec.Writer) {
			x.U8(recBcastVar)
			x.U8(0x81)
			x.U8(0x00) // 1, not in its shortest form
			x.VarStr("a")
		}), "bad bcast record"},
		{"overflowing varint", rec(func(x *codec.Writer) {
			x.U8(recOrderAppendVar)
			for i := 0; i < 10; i++ {
				x.U8(0xff)
			}
			x.U8(0x01)
		}), "bad order-append record"},
		{"value length past the record", rec(func(x *codec.Writer) {
			x.U8(recOrderAppendVar)
			x.VarLabel(labelA)
			x.Uvarint(1 << 40)
		}), "bad order-append record"},
		{"compact establish keep beyond order", rec(func(x *codec.Writer) {
			x.U8(recEstablishVar)
			x.Uvarint(1)
			x.Uvarint(0)
			x.Varint(1)
			x.VarViewID(testView.ID)
		}), "establish keep 1 beyond order of 0"},
		{"compact establish oversized suffix", rec(func(x *codec.Writer) {
			x.U8(recEstablishVar)
			x.Uvarint(0)
			x.Uvarint(1 << 62)
		}), "oversized order"},
	}
	for _, tc := range records {
		cases = append(cases, tc, tailCase{tc.name + " in batch", batchFrame(tc.tail[frameHeader:]), tc.reason})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			disk := append(append([]byte(nil), good...), tc.tail...)
			s := Replay(disk)
			if s.Truncated == "" {
				t.Fatalf("corrupt tail not detected: %+v", s)
			}
			if !contains(s.Truncated, tc.reason) {
				t.Fatalf("Truncated = %q, want substring %q", s.Truncated, tc.reason)
			}
			if s.Records != 1 || !s.HasView || s.View.ID != testView.ID {
				t.Fatalf("good prefix lost: records=%d view=%v", s.Records, s.View)
			}
			if s.TruncatedAt != len(good) {
				t.Fatalf("TruncatedAt = %d, want %d", s.TruncatedAt, len(good))
			}
		})
	}

	// A retired tag is no torn tail: replay stops there with Refused set,
	// loose or inside a batch, and reports nothing to discard.
	for _, tag := range retiredTags {
		older := payload(func(x *codec.Writer) { x.U8(tag); x.Str("older") })
		for _, tail := range []struct {
			name string
			b    []byte
		}{
			{fmt.Sprintf("older tag %d", tag), frame(older)},
			{fmt.Sprintf("older tag %d in batch", tag), batchFrame(
				payload(func(x *codec.Writer) { x.U8(recRecovered); x.I32(1) }), older)},
		} {
			t.Run(tail.name, func(t *testing.T) {
				disk := append(append([]byte(nil), good...), tail.b...)
				s := Replay(disk)
				if !errors.Is(s.Refused, ErrOlderFormat) || s.Truncated != "" || s.TruncatedAt != len(disk) {
					t.Fatalf("Refused = %v, Truncated = %q at %d; want ErrOlderFormat, nothing torn, %d",
						s.Refused, s.Truncated, s.TruncatedAt, len(disk))
				}
				if want := fmt.Sprintf("offset %d: record tag %d", len(good), tag); !contains(s.Refused.Error(), want) {
					t.Fatalf("Refused = %q, want it to name %q", s.Refused, want)
				}
				if s.Records != 1 || !s.HasView || s.View.ID != testView.ID || s.Incarnations != 0 {
					t.Fatalf("want exactly the good prefix: records=%d view=%v incarnations=%d", s.Records, s.View, s.Incarnations)
				}
			})
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestReplayBitFlips flips every bit of a realistic image, one at a time:
// replay must never panic, must detect every flip (a single-bit error is
// always within one frame, whose CRC catches it), and must keep the
// delivered prefix a prefix of the clean replay's — corruption may cost
// the tail, never rewrite history.
func TestReplayBitFlips(t *testing.T) {
	disk, _ := sampleDisk(t, 0)
	clean := Replay(disk)
	for off := range disk {
		for bit := uint(0); bit < 8; bit++ {
			img := append([]byte(nil), disk...)
			img[off] ^= 1 << bit
			s := Replay(img)
			if s.Truncated == "" {
				t.Fatalf("flip at byte %d bit %d went undetected", off, bit)
			}
			if len(s.Delivered) > len(clean.Delivered) {
				t.Fatalf("flip at byte %d bit %d grew the delivered prefix", off, bit)
			}
			for i := range s.Delivered {
				if s.Delivered[i] != clean.Delivered[i] {
					t.Fatalf("flip at byte %d bit %d rewrote delivery %d", off, bit, i+1)
				}
			}
		}
	}
}

// TestReplayTornWriteThroughDevice drives the tear through the storage
// device itself: a crash mid-write leaves a strict prefix of the batch
// frame, the batch still open behind it is never written, and replay keeps
// exactly the records that completed before the crash.
func TestReplayTornWriteThroughDevice(t *testing.T) {
	s := sim.New(1)
	st := storage.New(s, 5*time.Millisecond)
	w := New(st)
	w.View(testView, nil)
	s.RunFor(10 * time.Millisecond)

	w.Bcast(1, "durable-never", nil)
	w.Bcast(2, "queued-never", nil)
	s.RunFor(time.Millisecond) // first Bcast in flight, second in the open batch
	st.Drop()
	s.RunFor(20 * time.Millisecond)

	snap := Replay(st.Contents())
	if snap.Truncated == "" {
		t.Fatalf("torn write not detected: %+v", snap)
	}
	if snap.Records != 1 || !snap.HasView {
		t.Fatalf("want exactly the durable view record, got %+v", snap)
	}
	if snap.BcastSeq != 0 || len(snap.Pending) != 0 {
		t.Fatalf("torn/queued submissions leaked into the snapshot: %+v", snap)
	}
	// The truncated image replays identically after the owner appends more
	// records — a fresh incarnation writes past the torn tail... which this
	// model does not compact, so replay must keep truncating at the same
	// spot and ignore everything after it.
	at := snap.TruncatedAt
	if got := Replay(st.Contents()[:at]); got.Truncated != "" || got.Records != 1 {
		t.Fatalf("clean prefix does not replay cleanly: %+v", got)
	}
}

func FuzzReplay(f *testing.F) {
	disk, _ := sampleDisk(f, 0)
	f.Add(disk)
	f.Add(disk[:len(disk)/2])
	f.Add([]byte{})
	for _, off := range []int{0, 4, len(disk) / 2, len(disk) - 1} {
		img := append([]byte(nil), disk...)
		img[off] ^= 0x10
		f.Add(img)
	}
	// Coalesced layouts: a clean image whose batches hold several records,
	// the same image cut mid-batch (the torn covering write), and a batch
	// frame with a corrupted interior.
	batched, _ := sampleDisk(f, 2*time.Millisecond)
	f.Add(batched)
	f.Add(batched[:len(batched)-3])
	f.Add(batched[:len(batched)/2])
	img := append([]byte(nil), batched...)
	img[len(img)/2] ^= 0x10
	f.Add(img)
	f.Add(append(append([]byte(nil), viewRec(testView)...), batchFrame(
		payload(func(x *codec.Writer) { x.U8(recRecovered); x.I32(1) }),
		payload(func(x *codec.Writer) { x.U8(recRecovered); x.I32(2) }),
	)...))
	// Establishment records that keep a prefix: loose, torn inside the
	// keep/suffix record, and batched behind the records they build on.
	delta, at := deltaDisk()
	f.Add(delta)
	f.Add(delta[:at+frameHeader+6])
	f.Add(append(append([]byte(nil), viewRec(testView)...), batchFrame(
		establishRec(0, []types.Label{labelA, labelB}, 1, testView.ID)[frameHeader:],
		establishRec(1, []types.Label{labelC}, 2, testView.ID)[frameHeader:],
	)...))
	// A value-less Deliver and Label behind the records that hold their
	// values, the same batch torn inside a sub-record length, and the
	// older-format image pinned in testdata, which replay refuses.
	compact := append(append([]byte(nil), viewRec(testView)...), batchFrame(
		payload(func(x *codec.Writer) { x.U8(recBcastVar); x.Varint(1); x.VarStr("a") }),
		payload(func(x *codec.Writer) { x.U8(recLabelVar); x.Varint(1); x.VarLabel(labelA) }),
		payload(func(x *codec.Writer) { x.U8(recOrderAppendVar); x.VarLabel(labelA); x.VarStr("a") }),
		deliverRec(1, labelA)[frameHeader:],
	)...)
	f.Add(compact)
	f.Add(compact[:len(viewRec(testView))+frameHeader+2])
	f.Add(compact[:len(compact)-4])
	legacy, err := os.ReadFile("testdata/legacy.wal")
	if err != nil {
		f.Fatal(err)
	}
	if s := Replay(legacy); !errors.Is(s.Refused, ErrOlderFormat) || s.Truncated != "" {
		f.Fatalf("the older-format image replays with Refused = %v, Truncated = %q", s.Refused, s.Truncated)
	}
	f.Add(legacy)
	f.Add(legacy[:len(legacy)/3]) // refused too: the first older record comes early
	f.Fuzz(func(t *testing.T, data []byte) {
		s := Replay(data) // must never panic
		if s.TruncatedAt < 0 || s.TruncatedAt > len(data) {
			t.Fatalf("TruncatedAt = %d outside [0,%d]", s.TruncatedAt, len(data))
		}
		if s.Refused != nil && (!errors.Is(s.Refused, ErrOlderFormat) || s.Truncated != "" || s.TruncatedAt != len(data)) {
			t.Fatalf("refused image: %v, truncated %q at %d of %d", s.Refused, s.Truncated, s.TruncatedAt, len(data))
		}
		if s.NextConfirm < 1 {
			t.Fatalf("NextConfirm = %d", s.NextConfirm)
		}
		for i, d := range s.Delivered {
			if d.Pos != i+1 {
				t.Fatalf("delivered positions not contiguous: %v", s.Delivered)
			}
		}
		if len(s.Delivered) > len(s.Order) {
			t.Fatalf("delivered %d beyond order %d", len(s.Delivered), len(s.Order))
		}
		for _, d := range s.Delivered {
			if _, ok := s.Content[d.Label]; !ok {
				t.Fatalf("delivery %d of %v replays with no value in the content", d.Pos, d.Label)
			}
		}
		// The kept prefix must itself be a clean log with the same outcome.
		clean := Replay(data[:s.TruncatedAt])
		if clean.Truncated != "" || clean.Records != s.Records {
			t.Fatalf("kept prefix replays differently: %q records=%d vs %d",
				clean.Truncated, clean.Records, s.Records)
		}
	})
}

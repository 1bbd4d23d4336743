package recovery_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/types"
)

// legacyImage is a WAL image written by the fixed-width record format, in
// which every OrderAppend, Bcast, Label and Deliver record carries its
// value. It is processor 2's durable image after a seeded run of
// stack.Options{Seed: 1, N: 3, Delta: 1ms, StorageLatency: δ/4,
// CheckpointBytes: 18000}.Batched() with 240 values submitted round-robin
// every 2 ms from t = 10 ms, a {0,1}|{2} partition from 150 ms to 250 ms,
// and an amnesia crash of processor 2 at 330 ms, good again at 345 ms,
// run to 2 s: 575 records, among them four establishments, one checkpoint
// and one recovery marker. legacyDigest is its replay's digest
// (snapshotDigest). The file is never regenerated: it pins what images
// already on disk hold, so every later reader must replay it to the same
// snapshot.
const (
	legacyImage  = "testdata/legacy.wal"
	legacyDigest = "testdata/legacy.digest"
)

// snapshotDigest hashes every field of a replayed snapshot in a fixed
// rendering: labels in order, content and pending sorted.
func snapshotDigest(s *recovery.Snapshot) string {
	h := sha256.New()
	fmt.Fprintf(h, "view %v %v %v\n", s.HasView, s.View.ID, s.View.Set.Members())
	fmt.Fprintf(h, "order %v\nnext %d high %v\n", s.Order, s.NextConfirm, s.HighPrimary)
	labels := make([]types.Label, 0, len(s.Content))
	for l := range s.Content {
		labels = append(labels, l)
	}
	slices.SortFunc(labels, types.Label.Compare)
	for _, l := range labels {
		fmt.Fprintf(h, "content %v %q\n", l, s.Content[l])
	}
	for _, d := range s.Delivered {
		fmt.Fprintf(h, "delivered %d %v %v %d %q\n", d.Pos, d.Label, d.From, d.FromSeq, d.Value)
	}
	for _, pv := range s.Pending {
		fmt.Fprintf(h, "pending %d %q\n", pv.Seq, pv.Value)
	}
	fmt.Fprintf(h, "bcastseq %d incarnations %d\n", s.BcastSeq, s.Incarnations)
	fmt.Fprintf(h, "checkpoints %d at %d prev %d\n", s.Checkpoints, s.CheckpointAt, s.PrevCheckpointAt)
	fmt.Fprintf(h, "records %d truncated %q at %d\n", s.Records, s.Truncated, s.TruncatedAt)
	return hex.EncodeToString(h.Sum(nil))
}

// TestLegacyImageReplays: the pinned fixed-width image replays cleanly to
// its pinned snapshot digest.
func TestLegacyImageReplays(t *testing.T) {
	img, err := os.ReadFile(legacyImage)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(legacyDigest)
	if err != nil {
		t.Fatal(err)
	}
	s := recovery.Replay(img)
	if s.Truncated != "" || s.Checkpoints != 1 || s.Incarnations != 1 || len(s.Delivered) != 237 {
		t.Fatalf("legacy image: truncated %q, %d checkpoints, %d incarnations, %d deliveries",
			s.Truncated, s.Checkpoints, s.Incarnations, len(s.Delivered))
	}
	if got := snapshotDigest(s); got != strings.TrimSpace(string(want)) {
		t.Fatalf("legacy image replays to digest %s, pinned %s", got, strings.TrimSpace(string(want)))
	}
}

// TestLegacyImageTakesCompactRecords: a WAL resynced over the pinned image
// appends compact records after it — an order append and a value-less
// Deliver of it — and the whole image replays to the pinned snapshot
// extended by exactly those two records.
func TestLegacyImageTakesCompactRecords(t *testing.T) {
	img, err := os.ReadFile(legacyImage)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(1)
	st := storage.New(s, 0)
	st.Append(img, nil)
	if err := s.RunFor(0); err != nil {
		t.Fatal(err)
	}
	before := recovery.Replay(img)
	w := recovery.New(st)
	w.SetGroupCommit(0)
	w.Resync(0, before)
	pos := len(before.Order) + 1
	l := types.Label{ID: before.HighPrimary, Seqno: 1 << 20, Origin: 1}
	const v = types.Value("after the fixed-width records")
	w.OrderAppend(pos, l, v, nil)
	w.Deliver(pos, l, 1, 1<<20, v, nil)
	if err := s.Run(s.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	after := recovery.Replay(st.Contents())
	if after.Truncated != "" || after.Records != before.Records+2 {
		t.Fatalf("extended image: truncated %q after %d records, want %d", after.Truncated, after.Records, before.Records+2)
	}
	if got := after.Delivered[len(after.Delivered)-1]; got.Pos != pos || got.Label != l || got.Value != v {
		t.Fatalf("last delivery %+v, want position %d of %v with %q", got, pos, l, v)
	}
	after.Order = after.Order[:len(after.Order)-1]
	after.Delivered = after.Delivered[:len(after.Delivered)-1]
	delete(after.Content, l)
	after.Records, after.TruncatedAt, after.NextConfirm = before.Records, before.TruncatedAt, before.NextConfirm
	if snapshotDigest(after) != snapshotDigest(before) {
		t.Fatal("the compact records changed what the fixed-width prefix replays to")
	}
}

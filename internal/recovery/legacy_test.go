package recovery_test

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"os"
	"testing"
	"time"

	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/types"
)

// legacyImage is a WAL image written in the older fixed-width record
// format, in which every OrderAppend, Bcast, Label and Deliver record
// carries its value. It is processor 2's durable image after a seeded run
// of stack.Options{Seed: 1, N: 3, Delta: 1ms, StorageLatency: δ/4,
// CheckpointBytes: 18000} with 240 values submitted round-robin
// every 2 ms from t = 10 ms, a {0,1}|{2} partition from 150 ms to 250 ms,
// and an amnesia crash of processor 2 at 330 ms, good again at 345 ms,
// run to 2 s: 575 records, among them four establishments, one checkpoint
// and one recovery marker. The file is never regenerated: it pins what an
// image of that format holds, which Replay refuses.
const legacyImage = "testdata/legacy.wal"

// compactImage returns a clean image in the format the WAL writes.
func compactImage(t *testing.T) []byte {
	t.Helper()
	s := sim.New(1)
	w := recovery.New(storage.New(s, 0))
	v := types.View{ID: types.ViewID{Epoch: 9, Proc: 0}, Set: types.RangeProcSet(3)}
	l := types.Label{ID: v.ID, Seqno: 1, Origin: 0}
	w.View(v, nil)
	w.Bcast(1, "after", nil)
	w.Label(1, l, "after", nil)
	w.OrderAppend(1, l, "after", nil)
	w.Deliver(1, l, 0, 1, "after", nil)
	if err := s.Run(s.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	return w.Storage().Contents()
}

// TestOlderImageRefused: the pinned older-format image, alone or followed
// by compact records, is refused by name — Refused wraps ErrOlderFormat —
// and nothing of it is reported as a torn tail to discard.
func TestOlderImageRefused(t *testing.T) {
	img, err := os.ReadFile(legacyImage)
	if err != nil {
		t.Fatal(err)
	}
	alone := recovery.Replay(img)
	mixed := append(append([]byte(nil), img...), compactImage(t)...)
	for _, tc := range []struct {
		name string
		disk []byte
	}{{"older image", img}, {"older prefix then compact records", mixed}} {
		disk := tc.disk
		t.Run(tc.name, func(t *testing.T) {
			sum := sha256.Sum256(disk)
			s := recovery.Replay(disk)
			if !errors.Is(s.Refused, recovery.ErrOlderFormat) {
				t.Fatalf("Refused = %v, want ErrOlderFormat", s.Refused)
			}
			if s.Truncated != "" || s.TruncatedAt != len(disk) {
				t.Fatalf("truncated %q at %d of %d: a refused image has no torn tail", s.Truncated, s.TruncatedAt, len(disk))
			}
			if s.Refused.Error() != alone.Refused.Error() || s.Records != alone.Records {
				t.Fatalf("refused with %q after %d records, the older image alone with %q after %d",
					s.Refused, s.Records, alone.Refused, alone.Records)
			}
			if sha256.Sum256(disk) != sum {
				t.Fatal("Replay changed the image")
			}
		})
	}
	if !bytes.Contains([]byte(alone.Refused.Error()), []byte("record tag")) {
		t.Fatalf("Refused = %q names no record tag", alone.Refused)
	}
	t.Logf("older image: %v (%d records before it)", alone.Refused, alone.Records)
}

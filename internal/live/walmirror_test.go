package live

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/types"
)

// walImage builds a small valid WAL image (via a real WAL on a
// zero-latency simulated device) and the offset of its last frame, read
// from the frame headers: the last batch the WAL wrote.
func walImage(t *testing.T) (img []byte, lastFrame int) {
	t.Helper()
	s := sim.New(1)
	w := recovery.New(storage.New(s, 0))
	view := types.View{ID: types.ViewID{Epoch: 2, Proc: 1}, Set: types.RangeProcSet(3)}
	la := types.Label{ID: view.ID, Seqno: 1, Origin: 1}
	w.View(view, nil)
	w.Establish(0, []types.Label{la}, recovery.ContentMap{la: "a"}, 1, view.ID, nil)
	w.Bcast(1, "a", nil)
	w.Label(1, la, "a", nil)
	w.Deliver(1, la, 1, 1, "a", nil)
	if err := s.Run(s.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	img = w.Storage().Contents()
	// A frame is [u32 payload length | u32 CRC | payload].
	for off := 0; off < len(img); off += 8 + int(binary.LittleEndian.Uint32(img[off:])) {
		lastFrame = off
	}
	return img, lastFrame
}

func TestOpenWALMirrorDiscardsTornTail(t *testing.T) {
	img, lastRec := walImage(t)
	path := filepath.Join(t.TempDir(), "node.wal")
	// Tear the final frame: keep its header plus part of the payload,
	// then add garbage the next boot must never append after.
	torn := append(append([]byte(nil), img[:lastRec+10]...), "garbage"...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	data, m, err := openWALMirror(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if !bytes.Equal(data, img[:lastRec]) {
		t.Fatalf("retained %d bytes, want the clean prefix of %d", len(data), lastRec)
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, img[:lastRec]) {
		t.Fatalf("file holds %d bytes, want physical truncation to %d", len(onDisk), lastRec)
	}
	// Appends land right after the retained prefix: the next replay reads
	// them (bytes after a tear would have been dead).
	if _, err := m.Write([]byte("XY")); err != nil {
		t.Fatal(err)
	}
	onDisk, _ = os.ReadFile(path)
	if len(onDisk) != lastRec+2 {
		t.Fatalf("file is %d bytes after append, want %d", len(onDisk), lastRec+2)
	}
}

// TestBootReportsTornTail: the engine boots from openWALMirror's replay
// of the file, not from a second one over the retained bytes, so the node's
// LastReplay names the torn tail the boot cut, at the offset it cut, and
// counts the records before it.
func TestBootReportsTornTail(t *testing.T) {
	img, lastRec := walImage(t)
	clean := recovery.Replay(img[:lastRec])
	dir := t.TempDir()
	path := filepath.Join(dir, "node.wal")
	if err := os.WriteFile(path, append(append([]byte(nil), img[:lastRec+10]...), "garbage"...), 0o644); err != nil {
		t.Fatal(err)
	}
	e, err := StartEngine(EngineOptions{
		Config:    testConfig(t, 3),
		Self:      0,
		WALPath:   path,
		TracePath: filepath.Join(dir, "trace.jsonl"),
		Tick:      time.Millisecond,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	e.mu.Lock()
	rs, recoveries := e.node.LastReplay(), e.node.Recoveries()
	e.mu.Unlock()
	if recoveries != 1 || rs == nil {
		t.Fatalf("booted over a WAL with %d recoveries, replay %v", recoveries, rs)
	}
	if rs.Truncated == "" || rs.TruncatedAt != lastRec || rs.Records != clean.Records {
		t.Fatalf("boot replay reports %+v, want the tear at %d after %d records", *rs, lastRec, clean.Records)
	}
	t.Logf("boot replay: %+v", *rs)
}

// TestStartRefusesOlderWAL: a WAL file in the older fixed-width record
// format — alone, or followed by compact records — fails the engine's
// boot with recovery.ErrOlderFormat, and the file is left byte for byte as
// it was: no torn-tail truncation wipes a history the replay cannot read.
func TestStartRefusesOlderWAL(t *testing.T) {
	older, err := os.ReadFile("../recovery/testdata/legacy.wal")
	if err != nil {
		t.Fatal(err)
	}
	compact, _ := walImage(t)
	cfg := testConfig(t, 3)
	for _, tc := range []struct {
		name string
		img  []byte
	}{
		{"older image", older},
		{"older prefix, compact records", append(append([]byte(nil), older...), compact...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "node.wal")
			if err := os.WriteFile(path, tc.img, 0o644); err != nil {
				t.Fatal(err)
			}
			want := sha256.Sum256(tc.img)
			if _, _, err := openWALMirror(path); !errors.Is(err, recovery.ErrOlderFormat) {
				t.Fatalf("openWALMirror: %v, want ErrOlderFormat", err)
			}
			e, err := StartEngine(EngineOptions{
				Config:    cfg,
				Self:      0,
				WALPath:   path,
				TracePath: filepath.Join(dir, "trace.jsonl"),
				Tick:      time.Millisecond,
				Logf:      t.Logf,
			})
			if !errors.Is(err, recovery.ErrOlderFormat) {
				if e != nil {
					e.Close()
				}
				t.Fatalf("StartEngine: %v, want ErrOlderFormat", err)
			}
			t.Logf("StartEngine: %v", err)
			onDisk, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if sha256.Sum256(onDisk) != want {
				t.Fatalf("the refused WAL file changed: %d bytes, was %d", len(onDisk), len(tc.img))
			}
		})
	}
}

func TestOpenWALMirrorFreshFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.wal")
	data, m, err := openWALMirror(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if len(data) != 0 {
		t.Fatalf("fresh file returned %d bytes", len(data))
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("file not created: %v", err)
	}
}

func TestWALMirrorTruncatePrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.wal")
	_, m, err := openWALMirror(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Write([]byte("aaaabbbb")); err != nil {
		t.Fatal(err)
	}
	if err := m.TruncatePrefix(4); err != nil {
		t.Fatal(err)
	}
	onDisk, _ := os.ReadFile(path)
	if !bytes.Equal(onDisk, []byte("bbbb")) {
		t.Fatalf("file = %q, want the suffix", onDisk)
	}
	// At or below origin: no-op. Beyond the end: refused.
	if err := m.TruncatePrefix(2); err != nil {
		t.Fatalf("no-op truncation errored: %v", err)
	}
	if err := m.TruncatePrefix(100); err == nil {
		t.Fatal("truncation beyond the end accepted")
	}
	// The append handle survives the rename; offsets stay logical.
	if _, err := m.Write([]byte("cc")); err != nil {
		t.Fatal(err)
	}
	if err := m.TruncatePrefix(8); err != nil {
		t.Fatal(err)
	}
	onDisk, _ = os.ReadFile(path)
	if !bytes.Equal(onDisk, []byte("cc")) {
		t.Fatalf("file = %q after second truncation, want %q", onDisk, "cc")
	}
	// No half-rewritten temp file left behind.
	if _, err := os.Stat(path + ".compact"); !os.IsNotExist(err) {
		t.Fatalf("compact temp file left behind: %v", err)
	}
}

// The full loop a live node runs: a WAL over a mirrored device,
// compaction armed; after checkpoints truncate the prefix, a fresh boot
// over the file must replay to a valid snapshot whose head is a
// checkpoint.
func TestWALMirrorCompactionSurvivesReboot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "node.wal")
	_, m, err := openWALMirror(path)
	if err != nil {
		t.Fatal(err)
	}
	s := sim.New(1)
	st := storage.New(s, 0)
	st.Mirror = m
	w := recovery.New(st)
	w.SetCompact(true)
	view := types.View{ID: types.ViewID{Epoch: 2, Proc: 1}, Set: types.RangeProcSet(3)}
	la := types.Label{ID: view.ID, Seqno: 1, Origin: 1}
	lb := types.Label{ID: view.ID, Seqno: 2, Origin: 2}
	w.View(view, nil)
	w.Establish(0, []types.Label{la}, recovery.ContentMap{la: "a"}, 1, view.ID, nil)
	cs := recovery.CheckpointState{
		HasView: true, View: view,
		Order:       []types.Label{la},
		Content:     recovery.ContentMap{la: "a"},
		NextConfirm: 2, HighPrimary: view.ID, DeliveredCount: 1,
		Incarnations: 1,
	}
	c1 := w.EndOffset()
	w.Checkpoint(cs, nil)
	w.OrderAppend(2, lb, "b", nil)
	cs2 := cs
	cs2.Order = []types.Label{la, lb}
	cs2.Content = recovery.ContentMap{la: "a", lb: "b"}
	w.Checkpoint(cs2, nil)
	if err := s.Run(s.Now().Add(time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Base() != c1 {
		t.Fatalf("device Base = %d, want compaction at %d", st.Base(), c1)
	}
	onDisk, _ := os.ReadFile(path)
	if len(onDisk) != st.Size() {
		t.Fatalf("file %d bytes, device %d: mirror diverged", len(onDisk), st.Size())
	}

	// Reboot: the retained file must open clean and replay from the first
	// checkpoint through the second.
	data, m2, err := openWALMirror(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	snap := recovery.Replay(data)
	if snap.Truncated != "" {
		t.Fatalf("rebooted replay truncated: %s", snap.Truncated)
	}
	if snap.Checkpoints != 2 || len(snap.Order) != 2 {
		t.Errorf("rebooted replay: checkpoints=%d order=%v", snap.Checkpoints, snap.Order)
	}
	// Two-generation discipline: the head of the retained log is itself a
	// valid checkpoint (the older of the two).
	if snap.PrevCheckpointAt != 0 {
		t.Errorf("retained log's first checkpoint at %d, want the head (0)", snap.PrevCheckpointAt)
	}
}

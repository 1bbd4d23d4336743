package storage

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/sim"
)

func filled(t *testing.T) (*sim.Sim, *Stable) { return filledMirrored(t, nil) }

// filledMirrored is filled with a mirror attached before the first write.
func filledMirrored(t *testing.T, mirror io.Writer) (*sim.Sim, *Stable) {
	t.Helper()
	s := sim.New(1)
	st := New(s, 0)
	st.Mirror = mirror
	st.Append([]byte("aaaa"), nil)
	st.Append([]byte("bbbb"), nil)
	st.Append([]byte("cccc"), nil)
	if err := s.Run(sim.Never); err != nil {
		t.Fatal(err)
	}
	return s, st
}

func TestTruncatePrefixAdvancesBase(t *testing.T) {
	s, st := filled(t)
	st.TruncatePrefix(4)
	if st.Base() != 4 || st.Size() != 8 {
		t.Fatalf("Base=%d Size=%d, want 4/8", st.Base(), st.Size())
	}
	if !bytes.Equal(st.Contents(), []byte("bbbbcccc")) {
		t.Fatalf("Contents = %q", st.Contents())
	}
	// At or below Base: no-op, never a panic.
	st.TruncatePrefix(4)
	st.TruncatePrefix(2)
	if st.Base() != 4 || st.Size() != 8 {
		t.Fatalf("no-op truncation moved Base=%d Size=%d", st.Base(), st.Size())
	}
	// New appends land after the retained suffix at unchanged logical
	// offsets: compaction never renumbers.
	st.Append([]byte("dd"), nil)
	if err := s.Run(sim.Never); err != nil {
		t.Fatal(err)
	}
	if st.Base()+st.Size() != 14 {
		t.Fatalf("logical end = %d, want 14", st.Base()+st.Size())
	}
}

func TestTruncatePrefixBeyondEndPanics(t *testing.T) {
	_, st := filled(t)
	defer func() {
		if recover() == nil {
			t.Fatal("TruncatePrefix beyond the durable end did not panic")
		}
	}()
	st.TruncatePrefix(13)
}

// A bare io.Writer mirror cannot honor a prefix truncation; diverging
// silently from it would break crash recovery, so the device must refuse.
func TestTruncatePrefixNeedsTruncatingMirror(t *testing.T) {
	_, st := filledMirrored(t, &bytes.Buffer{})
	defer func() {
		if recover() == nil {
			t.Fatal("TruncatePrefix with a non-truncating mirror did not panic")
		}
	}()
	st.TruncatePrefix(4)
}

type fakeMirror struct {
	bytes.Buffer
	truncatedAt []int
}

func (m *fakeMirror) TruncatePrefix(n int) error {
	m.truncatedAt = append(m.truncatedAt, n)
	return nil
}

// Truncations at or below Base still reach the mirror: its image may
// extend further back than the device's (pre-boot incarnations).
func TestTruncatePrefixForwardsToMirror(t *testing.T) {
	m := &fakeMirror{}
	_, st := filledMirrored(t, m)
	st.TruncatePrefix(4)
	st.TruncatePrefix(2) // device no-op, mirror still told
	if len(m.truncatedAt) != 2 || m.truncatedAt[0] != 4 || m.truncatedAt[1] != 2 {
		t.Fatalf("mirror truncations = %v, want [4 2]", m.truncatedAt)
	}
}

// A mirrored device holds no second copy of the image — the mirror is the
// image — yet its length bookkeeping stays exact through appends and
// prefix truncation.
func TestMirroredDeviceKeepsLengthNotImage(t *testing.T) {
	m := &fakeMirror{}
	s, st := filledMirrored(t, m)
	if got := m.String(); got != "aaaabbbbcccc" {
		t.Fatalf("mirror holds %q", got)
	}
	if st.Size() != 12 || st.Base() != 0 {
		t.Fatalf("Base=%d Size=%d, want 0/12", st.Base(), st.Size())
	}
	if len(st.Contents()) != 0 || len(st.segs) != 0 {
		t.Fatalf("mirrored device retained an image: %q (%d segments)", st.Contents(), len(st.segs))
	}
	st.FlipBit(3, 1) // nothing to flip; must not panic
	st.TruncatePrefix(8)
	st.Append([]byte("dd"), nil)
	if err := s.Run(sim.Never); err != nil {
		t.Fatal(err)
	}
	if st.Base() != 8 || st.Size() != 6 {
		t.Fatalf("after truncate+append Base=%d Size=%d, want 8/6", st.Base(), st.Size())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("TruncatePrefix beyond the mirrored end did not panic")
		}
	}()
	st.TruncatePrefix(15)
}

func TestTruncateTailDiscardsTornBytes(t *testing.T) {
	s, st := filled(t)
	st.TruncateTail(10)
	if st.Size() != 10 {
		t.Fatalf("Size = %d, want 10", st.Size())
	}
	// The next incarnation appends where replay will actually read.
	st.Append([]byte("XX"), nil)
	if err := s.Run(sim.Never); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(st.Contents(), []byte("aaaabbbbccXX")) {
		t.Fatalf("Contents = %q", st.Contents())
	}
}

func TestTruncateTailRespectsBase(t *testing.T) {
	_, st := filled(t)
	st.TruncatePrefix(4)
	defer func() {
		if recover() == nil {
			t.Fatal("TruncateTail below Base did not panic")
		}
	}()
	st.TruncateTail(2)
}

func TestSetBaseContinuesExistingImage(t *testing.T) {
	s := sim.New(1)
	st := New(s, 0)
	st.SetBase(100)
	st.Append([]byte("zz"), nil)
	if err := s.Run(sim.Never); err != nil {
		t.Fatal(err)
	}
	if st.Base() != 100 || st.Base()+st.Size() != 102 {
		t.Fatalf("Base=%d end=%d, want 100/102", st.Base(), st.Base()+st.Size())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetBase on a non-empty device did not panic")
		}
	}()
	st.SetBase(200)
}

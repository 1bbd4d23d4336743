package storage

import (
	"bytes"
	"testing"

	"repro/internal/sim"
)

// segmentModel drives a device and a plain byte slice through the same
// operations and checks that the device's image equals the slice.
type segmentModel struct {
	t     *testing.T
	s     *sim.Sim
	st    *Stable
	image []byte
	base  int
	next  byte
}

func newSegmentModel(t *testing.T) *segmentModel {
	s := sim.New(1)
	return &segmentModel{t: t, s: s, st: New(s, 0)}
}

// appendN appends n bytes of a running pattern, in writes of at most
// chunk bytes.
func (m *segmentModel) appendN(n, chunk int) {
	m.t.Helper()
	for n > 0 {
		k := min(n, chunk)
		b := make([]byte, k)
		for i := range b {
			b[i] = m.next
			m.next++
		}
		m.st.Append(b, nil)
		m.image = append(m.image, b...)
		n -= k
	}
	if err := m.s.Run(sim.Never); err != nil {
		m.t.Fatal(err)
	}
	m.check("append")
}

func (m *segmentModel) check(what string) {
	m.t.Helper()
	if m.st.Base() != m.base || m.st.Size() != len(m.image) {
		m.t.Fatalf("%s: Base=%d Size=%d, want %d/%d", what, m.st.Base(), m.st.Size(), m.base, len(m.image))
	}
	if got := m.st.Contents(); !bytes.Equal(got, m.image) {
		m.t.Fatalf("%s: Contents differ from the model (len %d vs %d)", what, len(got), len(m.image))
	}
	for i, seg := range m.st.segs {
		if i < len(m.st.segs)-1 && len(seg) != segSize {
			m.t.Fatalf("%s: segment %d of %d holds %d bytes", what, i, len(m.st.segs), len(seg))
		}
	}
}

func (m *segmentModel) flip(off int) {
	m.t.Helper()
	m.st.FlipBit(off, 3)
	if off >= 0 && off < len(m.image) {
		m.image[off] ^= 1 << 3
	}
	m.check("flip")
}

func (m *segmentModel) truncatePrefix(n int) {
	m.t.Helper()
	m.st.TruncatePrefix(n)
	if n > m.base {
		m.image = m.image[n-m.base:]
		m.base = n
	}
	m.check("truncate prefix")
}

func (m *segmentModel) truncateTail(n int) {
	m.t.Helper()
	m.st.TruncateTail(n)
	m.image = m.image[:n-m.base]
	m.check("truncate tail")
}

// TestSegmentEdges puts every image operation at, and across, a segment
// edge: appends that grow the first segment, end exactly on an edge and
// straddle one, bit flips
// on either side of one, prefix truncations that free whole segments and
// that stop on or just past an edge, and tail truncations to an edge and
// just inside one, each followed by appends that must land where the
// model says.
func TestSegmentEdges(t *testing.T) {
	m := newSegmentModel(t)
	m.appendN(100, 100)
	if c := cap(m.st.segs[0]); c != firstSeg {
		t.Fatalf("a 100-byte image holds a %d-byte segment, want %d", c, firstSeg)
	}
	m.appendN(segSize-100, 1000) // grows the first segment; ends exactly on the first edge
	if len(m.st.segs) != 1 {
		t.Fatalf("%d segments after exactly one segment of bytes", len(m.st.segs))
	}
	m.appendN(segSize+10, 7000) // straddles the second edge
	for _, off := range []int{0, segSize - 1, segSize, segSize + 1, 2*segSize - 1, 2 * segSize, 2*segSize + 9, 2*segSize + 10, -1} {
		m.flip(off)
	}

	m.truncatePrefix(segSize) // exactly one whole segment
	if len(m.st.segs) != 2 || m.st.segOff != 0 {
		t.Fatalf("prefix at an edge: %d segments, offset %d", len(m.st.segs), m.st.segOff)
	}
	m.truncatePrefix(segSize + 5) // just past an edge: partial first segment
	m.flip(0)
	m.flip(segSize - 6)             // last byte of the partial first segment
	m.flip(segSize - 5)             // first byte of the next one
	m.truncatePrefix(2*segSize + 3) // across the next edge, freeing a segment
	if len(m.st.segs) != 1 || m.st.segOff != 3 {
		t.Fatalf("prefix across an edge: %d segments, offset %d", len(m.st.segs), m.st.segOff)
	}
	m.appendN(2*segSize, 5000)

	end := m.base + len(m.image)
	m.truncateTail(end - 1)
	m.truncateTail(3 * segSize) // back to a segment edge
	m.appendN(3, 3)             // the next write opens a fresh segment
	m.truncateTail(3*segSize - 2)
	m.appendN(segSize, 9000) // refills the cut segment, then crosses into the next
	m.truncateTail(m.base)   // the whole retained image
	m.appendN(segSize+1, 4096)
	m.truncatePrefix(m.base + len(m.image)) // everything, to the end
	if len(m.st.segs) != 0 && len(m.st.Contents()) != 0 {
		t.Fatalf("truncating to the end left %d segments", len(m.st.segs))
	}
	m.appendN(10, 10)
}

// TestMirroredDeviceAcrossSegmentEdges: a mirrored device keeps no
// segments however far its image grows, and its prefix truncation at a
// segment edge forwards the same offset to the mirror.
func TestMirroredDeviceAcrossSegmentEdges(t *testing.T) {
	s := sim.New(1)
	mirror := &fakeMirror{}
	st := New(s, 0)
	st.Mirror = mirror
	st.Append(make([]byte, 2*segSize+1), nil)
	if err := s.Run(sim.Never); err != nil {
		t.Fatal(err)
	}
	if len(st.segs) != 0 || st.Contents() != nil || mirror.Len() != 2*segSize+1 {
		t.Fatalf("mirrored device: %d segments, mirror %d bytes", len(st.segs), mirror.Len())
	}
	st.FlipBit(segSize, 1)
	st.TruncatePrefix(segSize)
	if st.Base() != segSize || st.Size() != segSize+1 || len(mirror.truncatedAt) != 1 || mirror.truncatedAt[0] != segSize {
		t.Fatalf("Base=%d Size=%d mirror truncations %v", st.Base(), st.Size(), mirror.truncatedAt)
	}
}

package vsmachine

import (
	"fmt"

	"repro/internal/types"
)

// GapMachine is the footnote-5 weakening of VS-machine: within each view
// messages are still placed in one total order, but a receiver may *skip*
// messages — its delivery sequence is an increasing subsequence of the
// view's queue rather than a prefix. The safe notification is
// correspondingly strengthened to fire for a message only when the entire
// prefix up to it has been delivered at every member ("the safe
// notification for a message holds for the prefix of the messages up to
// that message").
//
// Footnote 5 observes that VStoTO remains correct over this weaker
// service because it updates the stable order only after messages become
// safe; the test TestVStoTOOverGapVS machine-checks exactly that claim —
// the external bcast/brcv trace still conforms to TO-machine even though
// the per-receiver prefix property (and with it some Section 6 internal
// invariants) no longer holds.
type GapMachine struct {
	*Machine
	// PerSenderGapFree strengthens the gap property so that a receiver may
	// never deliver a message from a sender after having skipped an
	// earlier message from that same sender in the same view (per-sender
	// deliveries remain prefixes even though the cross-sender interleaving
	// has gaps).
	//
	// The randomized tests show this strengthening is NOT optional: with
	// arbitrary gaps, a receiver's tentative order can hold a sender's
	// k+1-st message without its k-th; a later view's state exchange
	// adopts that order as the representative's and the recovery safe path
	// confirms it — delivering the sender's messages out of submission
	// order, which no TO-machine trace allows. Footnote 5's condition on
	// safe notifications constrains the in-view confirm path but not this
	// recovery path.
	PerSenderGapFree bool

	// The machine's next[p,g] is 1 + the index of the last message p
	// received in view g (skipped messages are gone for good: delivery
	// stays an increasing subsequence), and its slot's contiguous the
	// length of the gap-free prefix p has received, which drives safe.
	//
	// skippedSender[p,g] records senders from which p has skipped a
	// message in g (consulted only in PerSenderGapFree mode).
	skippedSender map[pg]map[types.ProcID]bool
}

// NewGap creates a footnote-5 machine over procs with initial membership
// p0.
func NewGap(procs, p0 types.ProcSet) *GapMachine {
	return &GapMachine{
		Machine:       New(procs, p0),
		skippedSender: make(map[pg]map[types.ProcID]bool),
	}
}

// GprcvAtEnabled reports whether q may receive the message at 1-based
// queue index k in its current view: k exists and is at or beyond q's
// next index (everything in between is skipped).
func (m *GapMachine) GprcvAtEnabled(q types.ProcID, k int) bool {
	g := m.CurrentViewID[q]
	if g.IsBottom() {
		return false
	}
	queue := m.Queue(g)
	if k < m.Next(q, g) || k > len(queue) {
		return false
	}
	if m.PerSenderGapFree {
		sender := queue[k-1].P
		if m.skippedSender[pg{q, g}][sender] {
			return false // an earlier message from this sender was skipped
		}
		for j := m.Next(q, g); j < k; j++ {
			if queue[j-1].P == sender {
				return false // this delivery would itself skip the sender
			}
		}
	}
	return true
}

// ApplyGprcvAt performs the (possibly skipping) delivery of index k at q,
// returning the entry delivered.
func (m *GapMachine) ApplyGprcvAt(q types.ProcID, k int) (Entry, error) {
	if !m.GprcvAtEnabled(q, k) {
		return Entry{}, fmt.Errorf("vsmachine: gap gprcv at %d not enabled for %v", k, q)
	}
	g := m.CurrentViewID[q]
	key, queue, s := pg{q, g}, m.Queue(g), m.slotFor(q, g)
	wasNext := int(s.next) + 1
	for j := wasNext; j < k; j++ {
		if m.skippedSender[key] == nil {
			m.skippedSender[key] = make(map[types.ProcID]bool)
		}
		m.skippedSender[key][queue[j-1].P] = true
	}
	// The contiguous prefix grows only when nothing was skipped.
	if k == wasNext && int(s.contiguous) == wasNext-1 {
		s.contiguous = int32(k)
	}
	s.next = int32(k)
	return queue[k-1], nil
}

// SafeAtEnabled reports whether the footnote-5 safe for index k is enabled
// at q: it must be the next safe position, and every member's contiguous
// prefix must cover k.
func (m *GapMachine) SafeAtEnabled(q types.ProcID, k int) bool {
	g := m.CurrentViewID[q]
	v, ok := m.View(g) // ⊥ is never created
	if !ok {
		return false
	}
	if k != m.NextSafe(q, g) || k > len(m.Queue(g)) {
		return false
	}
	for _, r := range v.Set.Members() {
		if int(m.slot(r, g).contiguous) < k {
			return false
		}
	}
	return true
}

// ApplySafeAt performs the safe notification for index k at q.
func (m *GapMachine) ApplySafeAt(q types.ProcID, k int) (Entry, error) {
	if !m.SafeAtEnabled(q, k) {
		return Entry{}, fmt.Errorf("vsmachine: gap safe at %d not enabled for %v", k, q)
	}
	g := m.CurrentViewID[q]
	m.slotFor(q, g).nextSafe = int32(k)
	return m.Queue(g)[k-1], nil
}

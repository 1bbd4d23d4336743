package vsmachine

import (
	"cmp"
	"slices"

	"repro/internal/ioa"
)

// CloneFor returns a copy of the machine that act can be applied to
// without changing m. Only the slices act writes are copied; the rest, and
// every message value (immutable by the package's conventions), are shared
// with m. Everything is shared capped at its length, so an append or
// insert on the copy reallocates instead of writing into storage m still
// reads (nothing writes an element of a sequence in place). An action
// outside the machine's signature copies everything.
func (m *Machine) CloneFor(act ioa.Action) *Machine {
	out := *m
	out.Created, out.CurrentViewID, out.slots = slices.Clip(m.Created), slices.Clip(m.CurrentViewID), slices.Clip(m.slots)
	switch act.(type) {
	case Createview: // adds a record to the capped Created
	case Newview:
		out.CurrentViewID = slices.Clone(m.CurrentViewID)
	case Gpsnd, Gprcv, Safe: // may insert the slot they write
		out.slots = cloneSlots(m.slots, 1)
	case VSOrder:
		out.slots, out.Created = cloneSlots(m.slots, 0), cloneCreated(m.Created)
	default:
		out.CurrentViewID = slices.Clone(m.CurrentViewID)
		out.slots, out.Created = cloneSlots(m.slots, 1), cloneCreated(m.Created)
	}
	return &out
}

// cloneSlots copies the slots with room for spare more, each pending
// sequence capped at its length. No slots copy to none.
func cloneSlots(ss []slot, spare int) []slot {
	if len(ss) == 0 {
		return slices.Clip(ss)
	}
	out := append(make([]slot, 0, len(ss)+spare), ss...)
	for i := range out {
		out[i].pending = slices.Clip(out[i].pending)
	}
	return out
}

// cloneCreated copies the created views, each queue capped at its length.
func cloneCreated(cs []CreatedView) []CreatedView {
	out := slices.Clone(cs)
	for i := range out {
		out[i].Queue = slices.Clip(out[i].Queue)
	}
	return out
}

// cmpPG orders (processor, view) keys by processor, then view.
func cmpPG(a, b pg) int {
	if c := cmp.Compare(a.P, b.P); c != 0 {
		return c
	}
	return a.G.Cmp(b.G)
}

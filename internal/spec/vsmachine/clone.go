package vsmachine

import (
	"slices"

	"repro/internal/types"
)

// Writes names the parts of the machine's state an action writes, which
// CloneFor copies: newview writes current-viewid; gpsnd, gprcv and safe a
// slot, which they may insert; vs-order a slot and a created view's queue.
// Createview writes none: it appends to Created, shared capped.
type Writes uint8

const (
	WritesCurrent Writes = 1 << iota
	WritesSlots
	WritesQueues
	WritesAll = WritesCurrent | WritesSlots | WritesQueues
)

// Scratch is where a caller builds the copies it mostly drops: the last
// machine CloneFor built in it, with the parts it copied or grew, until
// the next. Keep moves one out, into arrays it carves kept copies from.
type Scratch struct {
	m                    Machine
	own                  Writes // the parts of m in the buffers below
	current, keptCurrent []types.ViewID
	slots, keptSlots     []slot
	created, keptCreated []CreatedView
	pending, keptPending []Msg
	queue, keptQueue     []Entry
	keptMachines         []Machine
}

// CloneFor returns a copy of the machine that an action writing w can be
// applied to without changing m. Only the parts w names are copied; the
// rest, and every message value (immutable by the package's conventions),
// are shared with m. Everything is shared capped at its length, so an
// append or insert on the copy reallocates instead of writing into storage
// m still reads (nothing writes an element of a sequence in place). The
// copy is built in sc, or in storage of its own when sc is nil.
func (m *Machine) CloneFor(w Writes, sc *Scratch) *Machine {
	in, spare := sc, 1 // room for the slot an action may insert
	if sc == nil {
		sc, spare = new(Scratch), 0
	}
	out := &sc.m
	*out, sc.own, out.sc = *m, w, in
	out.Created, out.CurrentViewID, out.slots = slices.Clip(m.Created), slices.Clip(m.CurrentViewID), slices.Clip(m.slots)
	if w&WritesCurrent != 0 {
		out.CurrentViewID = copyInto(&sc.current, m.CurrentViewID, 0)
	}
	if w&WritesSlots != 0 {
		out.slots = copyInto(&sc.slots, m.slots, spare)
		for i := range out.slots {
			out.slots[i].pending = slices.Clip(out.slots[i].pending)
		}
	}
	if w&WritesQueues != 0 {
		out.Created = copyInto(&sc.created, m.Created, 0)
		for i := range out.Created {
			out.Created[i].Queue = slices.Clip(out.Created[i].Queue)
		}
	}
	return out
}

// Keep returns m, moved out of sc first when it is the copy CloneFor built
// there, with the parts CloneFor copied; the rest stays shared.
func (sc *Scratch) Keep(m *Machine) *Machine {
	if m != &sc.m {
		return m
	}
	out := &carve(&sc.keptMachines, []Machine{*m})[0]
	out.sc = nil
	if sc.own&WritesCurrent != 0 {
		out.CurrentViewID = carve(&sc.keptCurrent, m.CurrentViewID)
	}
	if sc.own&WritesSlots != 0 {
		out.slots = carve(&sc.keptSlots, m.slots)
		keepBuilt(out.slots, func(s *slot) *[]Msg { return &s.pending }, sc.pending, &sc.keptPending)
	}
	if sc.own&WritesQueues != 0 {
		out.Created = carve(&sc.keptCreated, m.Created)
		keepBuilt(out.Created, func(c *CreatedView) *[]Entry { return &c.Queue }, sc.queue, &sc.keptQueue)
	}
	return out
}

// keepBuilt carves into kept the sequence of items grown in buf: a copy's
// are clipped, so growing one in place would allocate on every edge.
func keepBuilt[I, E any](items []I, seq func(*I) *[]E, buf []E, kept *[]E) {
	for i := range items {
		if s := seq(&items[i]); len(*s) > 0 && cap(buf) > 0 && &(*s)[0] == &buf[:1][0] {
			*s = carve(kept, *s)
		}
	}
}

// copyInto copies src into *buf, with room for spare more, and returns it.
func copyInto[E any](buf *[]E, src []E, spare int) []E {
	*buf = append(slices.Grow((*buf)[:0], len(src)+spare), src...)
	return *buf
}

// carve copies src to the front of free, which it refills with a new array
// of 128 (or len(src)) elements when short, and returns the copy.
func carve[E any](free *[]E, src []E) []E {
	if len(*free) < len(src) {
		*free = make([]E, max(len(src), 128))
	}
	out := append((*free)[:0:len(src)], src...)
	*free = (*free)[len(src):]
	return out
}

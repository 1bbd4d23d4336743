package vsmachine

import (
	"slices"
	"unsafe"

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
// the next. An Arena keeps the ones it does not drop.
type Scratch struct {
	m       Machine
	current []types.ViewID
	slots   []slot
	created []CreatedView
	pending []Msg
	queue   []Entry
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
	*out, out.sc = *m, in
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

// Arena is one generation of kept machines: Keep copies a machine into
// it, and Reset hands its storage out again once nothing kept there is
// read any more.
type Arena struct {
	machines Chunks[Machine]
	current  store[types.ViewID]
	slots    Chunks[slot]
	created  store[CreatedView]
	pending  Chunks[Msg]
	queue    Chunks[Entry]
	// copied holds machines not built in a Scratch that Keep copied, with
	// their copies, by address.
	copied [copiedSize]struct{ from, to *Machine }
}

// copiedSize is the number of entries of an arena's caches of copies.
const copiedSize = 64

// noScratch stands for the buffers of a machine not built in a Scratch.
var noScratch Scratch

// Keep returns a copy of m that holds every sequence it holds in a, built
// in a Scratch or not: it shares only the message values (immutable) and
// the view sets with m, so it stays valid when the storage m was kept in
// is reset. A machine, current-viewid or created sequence not built in a
// Scratch is immutable, and a successor shares most of its parent's: Keep
// copies one it copied recently (its caches forget by address) only once.
func (a *Arena) Keep(m *Machine) *Machine { return a.KeepReplacing(m, nil, nil) }

// KeepReplacing is Keep with every pending message old replaced by new in
// the copy: for a message built in storage of the caller's, which the
// copy must not share. old must be pending only in a machine built in a
// Scratch.
func (a *Arena) KeepReplacing(m *Machine, old, new Msg) *Machine {
	c := &a.copied[uintptr(unsafe.Pointer(m))/unsafe.Sizeof(*m)%copiedSize]
	if c.from == m {
		return c.to
	}
	sc := m.sc // the buffers m was built in, if any
	if sc == nil {
		sc = &noScratch
	}
	out := &a.machines.Carve(1)[0]
	*out = *m
	out.sc = nil
	out.CurrentViewID, _ = a.current.copyOf(m.CurrentViewID, sc.current)
	out.slots = a.slots.Copy(m.slots)
	for i := range out.slots {
		pending := a.pending.Copy(out.slots[i].pending)
		for j := range pending {
			if old != nil && pending[j] == old {
				pending[j] = new
			}
		}
		out.slots[i].pending = pending
	}
	var made bool // the copy is new, so its queues are not copied yet
	if out.Created, made = a.created.copyOf(m.Created, sc.created); made {
		for i := range out.Created {
			out.Created[i].Queue = a.queue.Copy(out.Created[i].Queue)
		}
	}
	if m.sc == nil {
		c.from, c.to = m, out
	}
	return out
}

// Reset makes the arena's storage available to Keep again. Every machine
// kept since the last Reset is invalid from then on.
func (a *Arena) Reset() {
	a.machines.Reset()
	a.current.reset()
	a.slots.Reset()
	a.created.reset()
	a.pending.Reset()
	a.queue.Reset()
	clear(a.copied[:])
}

// InUse returns the bytes kept since the last Reset.
func (a *Arena) InUse() int {
	return a.machines.InUse() + a.current.InUse() + a.slots.InUse() + a.created.InUse() +
		a.pending.InUse() + a.queue.InUse()
}

// store is an Arena's storage for one kind of sequence, with the
// sequences not built in a Scratch that it copied recently, by address.
type store[E any] struct {
	Chunks[E]
	copied [copiedSize]struct {
		from *E
		to   []E
	}
}

// copyOf returns a copy of s (nil when s is empty), and whether it made
// it: a new one unless s is not built in buf and was copied recently.
func (st *store[E]) copyOf(s, buf []E) ([]E, bool) {
	if len(s) == 0 {
		return nil, false
	}
	if cap(buf) > 0 && &s[0] == &buf[:1][0] {
		return st.Copy(s), true
	}
	c := &st.copied[uintptr(unsafe.Pointer(&s[0]))/unsafe.Sizeof(s[0])%copiedSize]
	if c.from == &s[0] && len(c.to) == len(s) {
		return c.to, false
	}
	c.from, c.to = &s[0], st.Copy(s)
	return c.to, true
}

func (st *store[E]) reset() {
	st.Reset()
	clear(st.copied[:])
}

// Chunks hands out runs of consecutive elements of arrays it allocates,
// and, after Reset, of the same arrays again: storage for values whose
// owner knows when they all die at once. The arrays start at chunkMin
// bytes and double up to chunkMax, so a short run pays for little.
type Chunks[E any] struct {
	arrays [][]E // every array allocated, in the order they are used
	next   int   // the index of the array after the one free is in
	free   []E
	used   int // elements handed out since the last Reset
}

const (
	chunkMin = 1 << 10
	chunkMax = 32 << 10
)

// Carve returns n elements, capacity clipped: an append to them
// reallocates instead of writing over the next run. They hold what the
// arrays last held: the caller overwrites them.
func (c *Chunks[E]) Carve(n int) []E {
	if len(c.free) < n {
		c.refill(n)
	}
	out := c.free[:n:n]
	c.free = c.free[n:]
	c.used += n
	return out
}

// Copy returns a copy of src carved from c (nil when src is empty).
func (c *Chunks[E]) Copy(src []E) []E {
	if len(src) == 0 {
		return nil
	}
	out := c.Carve(len(src))
	copy(out, src)
	return out
}

// refill makes free the next array with room for n, allocating one when
// every array is in use: each twice the last, up to chunkMax bytes.
func (c *Chunks[E]) refill(n int) {
	for c.next < len(c.arrays) {
		c.free, c.next = c.arrays[c.next], c.next+1
		if len(c.free) >= n {
			return
		}
	}
	var e E
	sz := max(int(unsafe.Sizeof(e)), 1)
	size := chunkMin / sz
	if k := len(c.arrays); k > 0 {
		size = min(2*len(c.arrays[k-1]), chunkMax/sz)
	}
	c.free = make([]E, max(size, n))
	c.arrays = append(c.arrays, c.free)
	c.next = len(c.arrays)
}

// Reset hands the arrays out again. What they hold stays until it is
// overwritten.
func (c *Chunks[E]) Reset() {
	c.next, c.free, c.used = 0, nil, 0
}

// InUse returns the bytes handed out since the last Reset.
func (c *Chunks[E]) InUse() int {
	var e E
	return c.used * int(unsafe.Sizeof(e))
}

// copyInto copies src into *buf, with room for spare more, and returns it.
func copyInto[E any](buf *[]E, src []E, spare int) []E {
	*buf = append(slices.Grow((*buf)[:0], len(src)+spare), src...)
	return *buf
}

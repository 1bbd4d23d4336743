// Package vsmachine implements VS-machine, the paper's Figure 6: the
// abstract state machine specifying a partitionable view-synchronous group
// communication service. Views are created globally in increasing
// identifier order (createview); each processor is told of some of the
// views containing it (newview), always with increasing identifiers;
// messages sent in a view (gpsnd) are placed into a per-view total order
// (vs-order) and each member receives a prefix of that order (gprcv) while
// it is in that same view; safe(m)_{p,q} tells q that every member of its
// current view has received m.
//
// The package also provides WeakVS-machine (the remark after Lemma 4.2),
// which only requires createview identifiers to be unique, and executable
// checks of all fourteen invariants of Lemma 4.1.
package vsmachine

import (
	"fmt"
	"slices"

	"repro/internal/types"
)

// Msg is a message of the alphabet M. Concrete message values must be
// comparable (the executor and checkers match occurrences by value);
// layers that send composite payloads use pointers, which are comparable
// by identity.
type Msg any

// Gpsnd is the input action gpsnd(m)_p: the client at p sends m to the
// group.
type Gpsnd struct {
	M Msg
	P types.ProcID
}

// ActionName returns "gpsnd".
func (Gpsnd) ActionName() string { return "gpsnd" }

// String renders the action.
func (g Gpsnd) String() string { return fmt.Sprintf("gpsnd(%v)_%v", g.M, g.P) }

// Gprcv is the output action gprcv(m)_{p,q}: delivery to q of m sent by p.
type Gprcv struct {
	M Msg
	P types.ProcID // sender
	Q types.ProcID // receiver
}

// ActionName returns "gprcv".
func (Gprcv) ActionName() string { return "gprcv" }

// String renders the action.
func (g Gprcv) String() string { return fmt.Sprintf("gprcv(%v)_{%v,%v}", g.M, g.P, g.Q) }

// Safe is the output action safe(m)_{p,q}: notification to q that m (sent
// earlier by p) has been received by every member of q's current view.
type Safe struct {
	M Msg
	P types.ProcID
	Q types.ProcID
}

// ActionName returns "safe".
func (Safe) ActionName() string { return "safe" }

// String renders the action.
func (s Safe) String() string { return fmt.Sprintf("safe(%v)_{%v,%v}", s.M, s.P, s.Q) }

// Newview is the output action newview(v)_p; the signature guarantees
// p ∈ v.set.
type Newview struct {
	V types.View
	P types.ProcID
}

// ActionName returns "newview".
func (Newview) ActionName() string { return "newview" }

// String renders the action.
func (n Newview) String() string { return fmt.Sprintf("newview(%v)_%v", n.V, n.P) }

// Createview is the internal action createview(v).
type Createview struct {
	V types.View
}

// ActionName returns "createview".
func (Createview) ActionName() string { return "createview" }

// String renders the action.
func (c Createview) String() string { return fmt.Sprintf("createview(%v)", c.V) }

// VSOrder is the internal action vs-order(m, p, g): move the head of
// pending[p, g] to the end of queue[g].
type VSOrder struct {
	M Msg
	P types.ProcID
	G types.ViewID
}

// ActionName returns "vs-order".
func (VSOrder) ActionName() string { return "vs-order" }

// String renders the action.
func (o VSOrder) String() string { return fmt.Sprintf("vs-order(%v,%v,%v)", o.M, o.P, o.G) }

// Entry is one element of a per-view queue: a message paired with its
// sender.
type Entry struct {
	M Msg
	P types.ProcID
}

type pg struct {
	P types.ProcID
	G types.ViewID
}

// CreatedView is one element of created together with queue[g] for its
// identifier g.
type CreatedView struct {
	types.View
	// Queue is queue[g], the view's total order of ⟨message, sender⟩ pairs.
	Queue []Entry
}

// slot is the state Figure 6 keeps per (processor, view) pair.
type slot struct {
	pg
	pending []Msg
	// next and nextSafe hold next[p,g] − 1 and next-safe[p,g] − 1, so the
	// zero slot is Figure 6's default of 1. (Three int32s keep a slot at 64
	// bytes: the explorer copies the slots on most of its edges.)
	next, nextSafe int32
	// contiguous is GapMachine's gap-free received prefix (see gap.go).
	contiguous int32
}

// Machine is the VS-machine state of Figure 6.
type Machine struct {
	procs types.ProcSet
	weak  bool // WeakVS-machine: createview only requires a fresh id

	// Created is the set of created views in ascending identifier order,
	// each with its queue. Lemma 4.1 parts 1 (identifiers are unique) and 7
	// (only created views have queues) hold by construction.
	Created []CreatedView
	// CurrentViewID[p] ∈ G⊥ is p's current view identifier.
	CurrentViewID []types.ViewID
	// slots holds pending[p,g], next[p,g] and next-safe[p,g] of Figure 6
	// for every pair that has left the defaults, sorted by (p, g).
	slots []slot
	// sc is the Scratch a copy was built in: gpsnd and vs-order grow there.
	sc *Scratch
}

// New creates a VS-machine over procs whose distinguished initial view is
// ⟨g0, p0⟩. Processors in p0 start with current view g0; the rest start
// with ⊥. CurrentViewID is indexed by ProcID: procs is RangeProcSet(n).
func New(procs types.ProcSet, p0 types.ProcSet) *Machine {
	m := &Machine{procs: procs, CurrentViewID: make([]types.ViewID, procs.Size())}
	v0 := types.InitialView(p0)
	m.Created = []CreatedView{{View: v0}}
	for _, p := range p0.Members() {
		m.CurrentViewID[p] = v0.ID
	}
	return m
}

// NewWeak creates a WeakVS-machine, identical except that createview only
// requires the new identifier to be unique rather than maximal.
func NewWeak(procs types.ProcSet, p0 types.ProcSet) *Machine {
	m := New(procs, p0)
	m.weak = true
	return m
}

// Procs returns the processor universe.
func (m *Machine) Procs() types.ProcSet { return m.procs }

// search returns where the slot of (p, g) is, or would be inserted. (The
// searches are written out: sort.Find's closures were 7 % of the explorer.)
func (m *Machine) search(p types.ProcID, g types.ViewID) (int, bool) {
	lo, hi := 0, len(m.slots)
	for lo < hi {
		if h := int(uint(lo+hi) >> 1); m.slots[h].P < p || m.slots[h].P == p && m.slots[h].G.Less(g) {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo, lo < len(m.slots) && m.slots[lo].pg == pg{p, g}
}

// slot returns the slot of (p, g), the zero slot when it has none.
func (m *Machine) slot(p types.ProcID, g types.ViewID) slot {
	if i, ok := m.search(p, g); ok {
		return m.slots[i]
	}
	return slot{}
}

// slotFor returns the slot of (p, g) for writing, inserting it if absent.
func (m *Machine) slotFor(p types.ProcID, g types.ViewID) *slot {
	i, ok := m.search(p, g)
	if !ok {
		m.slots = slices.Insert(m.slots, i, slot{pg: pg{p, g}})
	}
	return &m.slots[i]
}

// NumSlots returns how many (p, g) pairs have left Figure 6's defaults.
func (m *Machine) NumSlots() int { return len(m.slots) }

// SlotAt returns the i-th such pair in (p, g) order, and pending[p,g]
// (shared; do not modify).
func (m *Machine) SlotAt(i int) (types.ProcID, types.ViewID, []Msg) {
	return m.slots[i].P, m.slots[i].G, m.slots[i].pending
}

// view returns the index of the created view g, or where it would be
// inserted.
func (m *Machine) view(g types.ViewID) (int, bool) {
	lo, hi := 0, len(m.Created)
	for lo < hi {
		if h := int(uint(lo+hi) >> 1); m.Created[h].ID.Less(g) {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo, lo < len(m.Created) && m.Created[lo].ID == g
}

// View returns the created view with identifier g.
func (m *Machine) View(g types.ViewID) (types.View, bool) {
	if i, ok := m.view(g); ok {
		return m.Created[i].View, true
	}
	return types.View{}, false
}

// Queue returns queue[g] (shared slice; do not modify).
func (m *Machine) Queue(g types.ViewID) []Entry {
	if i, ok := m.view(g); ok {
		return m.Created[i].Queue
	}
	return nil
}

// Next returns next[p,g].
func (m *Machine) Next(p types.ProcID, g types.ViewID) int { return int(m.slot(p, g).next) + 1 }

// NextSafe returns next-safe[p,g].
func (m *Machine) NextSafe(p types.ProcID, g types.ViewID) int { return int(m.slot(p, g).nextSafe) + 1 }

// Pending exposes pending[p,g] (shared slice; do not modify).
func (m *Machine) Pending(p types.ProcID, g types.ViewID) []Msg { return m.slot(p, g).pending }

// CreateviewEnabled reports whether createview(v) is enabled.
func (m *Machine) CreateviewEnabled(v types.View) bool {
	if v.ID.IsBottom() {
		return false
	}
	if m.weak {
		_, exists := m.view(v.ID)
		return !exists
	}
	return m.MaxCreatedViewID().Less(v.ID)
}

// ApplyCreateview performs createview(v).
func (m *Machine) ApplyCreateview(v types.View) error {
	if !m.CreateviewEnabled(v) {
		return fmt.Errorf("vsmachine: createview(%v) not enabled", v)
	}
	i, _ := m.view(v.ID) // the end, except in the weak machine
	if m.sc != nil {
		m.Created = slices.Clip(slices.Insert(copyInto(&m.sc.created, m.Created, 1), i, CreatedView{View: v}))
		return nil
	}
	m.Created = slices.Insert(m.Created, i, CreatedView{View: v})
	return nil
}

// NewviewEnabled reports whether newview(v)_p is enabled.
func (m *Machine) NewviewEnabled(v types.View, p types.ProcID) bool {
	if !v.Set.Contains(p) { // signature constraint
		return false
	}
	created, ok := m.View(v.ID)
	if !ok || !created.Set.Equal(v.Set) {
		return false
	}
	cur := m.CurrentViewID[p]
	return cur.IsBottom() || cur.Less(v.ID)
}

// ApplyNewview performs newview(v)_p.
func (m *Machine) ApplyNewview(v types.View, p types.ProcID) error {
	if !m.NewviewEnabled(v, p) {
		return fmt.Errorf("vsmachine: newview(%v)_%v not enabled (current %v)", v, p, m.CurrentViewID[p])
	}
	m.CurrentViewID[p] = v.ID
	return nil
}

// ApplyGpsnd applies the input gpsnd(m)_p. A send while the sender's view
// is ⊥ is silently ignored, as in Figure 6.
func (m *Machine) ApplyGpsnd(msg Msg, p types.ProcID) {
	g := m.CurrentViewID[p]
	if g.IsBottom() {
		return
	}
	s := m.slotFor(p, g)
	if m.sc != nil {
		s.pending = slices.Clip(append(copyInto(&m.sc.pending, s.pending, 1), msg))
		return
	}
	s.pending = append(s.pending, msg)
}

// VSOrderEnabled reports whether vs-order(m, p, g) is enabled.
func (m *Machine) VSOrderEnabled(msg Msg, p types.ProcID, g types.ViewID) bool {
	pend := m.Pending(p, g)
	return len(pend) > 0 && pend[0] == msg
}

// ApplyVSOrder performs vs-order(m, p, g).
func (m *Machine) ApplyVSOrder(msg Msg, p types.ProcID, g types.ViewID) error {
	if !m.VSOrderEnabled(msg, p, g) {
		return fmt.Errorf("vsmachine: vs-order(%v,%v,%v) not enabled", msg, p, g)
	}
	i, ok := m.view(g)
	if !ok {
		return fmt.Errorf("vsmachine: vs-order(%v,%v,%v) into a view not created", msg, p, g)
	}
	s := m.slotFor(p, g)
	s.pending = s.pending[1:]
	if m.sc != nil {
		m.Created[i].Queue = slices.Clip(append(copyInto(&m.sc.queue, m.Created[i].Queue, 1), Entry{M: msg, P: p}))
		return nil
	}
	m.Created[i].Queue = append(m.Created[i].Queue, Entry{M: msg, P: p})
	return nil
}

// GprcvEnabled reports whether gprcv(m)_{p,q} is enabled in q's current
// view.
func (m *Machine) GprcvEnabled(msg Msg, p, q types.ProcID) bool {
	g := m.CurrentViewID[q]
	if g.IsBottom() {
		return false
	}
	n := m.Next(q, g)
	queue := m.Queue(g)
	return n <= len(queue) && queue[n-1].M == msg && queue[n-1].P == p
}

// ApplyGprcv performs gprcv(m)_{p,q}.
func (m *Machine) ApplyGprcv(msg Msg, p, q types.ProcID) error {
	if !m.GprcvEnabled(msg, p, q) {
		return fmt.Errorf("vsmachine: gprcv(%v)_{%v,%v} not enabled", msg, p, q)
	}
	m.slotFor(q, m.CurrentViewID[q]).next++
	return nil
}

// SafeEnabled reports whether safe(m)_{p,q} is enabled: q's current view
// ⟨g,S⟩ is created, queue[g](next-safe[q,g]) = ⟨m,p⟩, and every r ∈ S has
// next[r,g] > next-safe[q,g].
func (m *Machine) SafeEnabled(msg Msg, p, q types.ProcID) bool {
	g := m.CurrentViewID[q]
	i, ok := m.view(g) // ⊥ is never created
	if !ok {
		return false
	}
	v := &m.Created[i]
	ns := m.NextSafe(q, g)
	if ns > len(v.Queue) || v.Queue[ns-1].M != msg || v.Queue[ns-1].P != p {
		return false
	}
	for _, r := range v.Set.Members() {
		if m.Next(r, g) <= ns {
			return false
		}
	}
	return true
}

// ApplySafe performs safe(m)_{p,q}.
func (m *Machine) ApplySafe(msg Msg, p, q types.ProcID) error {
	if !m.SafeEnabled(msg, p, q) {
		return fmt.Errorf("vsmachine: safe(%v)_{%v,%v} not enabled", msg, p, q)
	}
	m.slotFor(q, m.CurrentViewID[q]).nextSafe++
	return nil
}

// CreatedViewIDs returns the derived variable created-viewids, sorted
// ascending.
func (m *Machine) CreatedViewIDs() []types.ViewID {
	ids := make([]types.ViewID, len(m.Created))
	for i, c := range m.Created {
		ids[i] = c.ID
	}
	return ids
}

// MaxCreatedViewID returns the largest created view identifier.
func (m *Machine) MaxCreatedViewID() types.ViewID { return m.Created[len(m.Created)-1].ID }

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

// Machine is the VS-machine state of Figure 6.
type Machine struct {
	procs types.ProcSet
	weak  bool // WeakVS-machine: createview only requires a fresh id

	// Created is the set of created views, keyed by identifier (unique by
	// Lemma 4.1 part 1, enforced here by construction).
	Created map[types.ViewID]types.View
	// CurrentViewID[p] ∈ G⊥ is p's current view identifier.
	CurrentViewID map[types.ProcID]types.ViewID
	// Queue[g] is the per-view total order of ⟨message, sender⟩ pairs.
	Queue map[types.ViewID][]Entry
	// pending[p,g], next[p,g], nextSafe[p,g] as in Figure 6.
	pending  map[pg][]Msg
	next     map[pg]int
	nextSafe map[pg]int
}

// New creates a VS-machine over procs whose distinguished initial view is
// ⟨g0, p0⟩. Processors in p0 start with current view g0; the rest start
// with ⊥.
func New(procs types.ProcSet, p0 types.ProcSet) *Machine {
	m := &Machine{
		procs:         procs,
		Created:       make(map[types.ViewID]types.View),
		CurrentViewID: make(map[types.ProcID]types.ViewID, procs.Size()),
		Queue:         make(map[types.ViewID][]Entry),
		pending:       make(map[pg][]Msg),
		next:          make(map[pg]int),
		nextSafe:      make(map[pg]int),
	}
	v0 := types.InitialView(p0)
	m.Created[v0.ID] = v0
	for _, p := range procs.Members() {
		if p0.Contains(p) {
			m.CurrentViewID[p] = v0.ID
		} else {
			m.CurrentViewID[p] = types.Bottom
		}
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

// nextIdx returns next[p,g], defaulting to 1.
func (m *Machine) nextIdx(p types.ProcID, g types.ViewID) int {
	if n, ok := m.next[pg{p, g}]; ok {
		return n
	}
	return 1
}

// nextSafeIdx returns next-safe[p,g], defaulting to 1.
func (m *Machine) nextSafeIdx(p types.ProcID, g types.ViewID) int {
	if n, ok := m.nextSafe[pg{p, g}]; ok {
		return n
	}
	return 1
}

// Next exposes next[p,g] for invariant checks and tests.
func (m *Machine) Next(p types.ProcID, g types.ViewID) int { return m.nextIdx(p, g) }

// NextSafe exposes next-safe[p,g].
func (m *Machine) NextSafe(p types.ProcID, g types.ViewID) int { return m.nextSafeIdx(p, g) }

// Pending exposes pending[p,g] (shared slice; do not modify).
func (m *Machine) Pending(p types.ProcID, g types.ViewID) []Msg { return m.pending[pg{p, g}] }

// CreateviewEnabled reports whether createview(v) is enabled.
func (m *Machine) CreateviewEnabled(v types.View) bool {
	if v.ID.IsBottom() {
		return false
	}
	if m.weak {
		_, exists := m.Created[v.ID]
		return !exists
	}
	for id := range m.Created {
		if !id.Less(v.ID) {
			return false
		}
	}
	return true
}

// ApplyCreateview performs createview(v).
func (m *Machine) ApplyCreateview(v types.View) error {
	if !m.CreateviewEnabled(v) {
		return fmt.Errorf("vsmachine: createview(%v) not enabled", v)
	}
	m.Created[v.ID] = v
	return nil
}

// NewviewEnabled reports whether newview(v)_p is enabled.
func (m *Machine) NewviewEnabled(v types.View, p types.ProcID) bool {
	if !v.Set.Contains(p) { // signature constraint
		return false
	}
	created, ok := m.Created[v.ID]
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
	k := pg{p, g}
	m.pending[k] = append(m.pending[k], msg)
}

// VSOrderEnabled reports whether vs-order(m, p, g) is enabled.
func (m *Machine) VSOrderEnabled(msg Msg, p types.ProcID, g types.ViewID) bool {
	pend := m.pending[pg{p, g}]
	return len(pend) > 0 && pend[0] == msg
}

// ApplyVSOrder performs vs-order(m, p, g).
func (m *Machine) ApplyVSOrder(msg Msg, p types.ProcID, g types.ViewID) error {
	if !m.VSOrderEnabled(msg, p, g) {
		return fmt.Errorf("vsmachine: vs-order(%v,%v,%v) not enabled", msg, p, g)
	}
	k := pg{p, g}
	m.pending[k] = m.pending[k][1:]
	m.Queue[g] = append(m.Queue[g], Entry{M: msg, P: p})
	return nil
}

// GprcvEnabled reports whether gprcv(m)_{p,q} is enabled in q's current
// view.
func (m *Machine) GprcvEnabled(msg Msg, p, q types.ProcID) bool {
	g := m.CurrentViewID[q]
	if g.IsBottom() {
		return false
	}
	n := m.nextIdx(q, g)
	queue := m.Queue[g]
	return n <= len(queue) && queue[n-1].M == msg && queue[n-1].P == p
}

// ApplyGprcv performs gprcv(m)_{p,q}.
func (m *Machine) ApplyGprcv(msg Msg, p, q types.ProcID) error {
	if !m.GprcvEnabled(msg, p, q) {
		return fmt.Errorf("vsmachine: gprcv(%v)_{%v,%v} not enabled", msg, p, q)
	}
	g := m.CurrentViewID[q]
	m.next[pg{q, g}] = m.nextIdx(q, g) + 1
	return nil
}

// SafeEnabled reports whether safe(m)_{p,q} is enabled: q's current view
// ⟨g,S⟩ is created, queue[g](next-safe[q,g]) = ⟨m,p⟩, and every r ∈ S has
// next[r,g] > next-safe[q,g].
func (m *Machine) SafeEnabled(msg Msg, p, q types.ProcID) bool {
	g := m.CurrentViewID[q]
	if g.IsBottom() {
		return false
	}
	v, ok := m.Created[g]
	if !ok {
		return false
	}
	ns := m.nextSafeIdx(q, g)
	queue := m.Queue[g]
	if ns > len(queue) || queue[ns-1].M != msg || queue[ns-1].P != p {
		return false
	}
	for _, r := range v.Set.Members() {
		if m.nextIdx(r, g) <= ns {
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
	g := m.CurrentViewID[q]
	m.nextSafe[pg{q, g}] = m.nextSafeIdx(q, g) + 1
	return nil
}

// CreatedViewIDs returns the derived variable created-viewids, sorted
// ascending.
func (m *Machine) CreatedViewIDs() []types.ViewID {
	return sortedKeys(make([]types.ViewID, 0, len(m.Created)), m.Created, types.ViewID.Cmp)
}

// MaxCreatedViewID returns the largest created view identifier.
func (m *Machine) MaxCreatedViewID() types.ViewID {
	max := types.Bottom
	for id := range m.Created {
		if max.Less(id) {
			max = id
		}
	}
	return max
}

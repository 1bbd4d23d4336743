// Package tomachine implements TO-machine, the paper's Figure 3: the
// abstract, global state machine specifying a totally ordered broadcast
// service. Clients submit data values with bcast(a)_p; the machine
// nondeterministically moves pending values into a single global queue
// (to-order), and delivers each location a prefix of that queue via
// brcv(a)_{p,q}.
//
// The machine is executable: it exposes the paper's precondition/effect
// transitions directly and is the oracle of the forward-simulation check
// of Section 6. Its actions are in the ioa vocabulary; the tests compose
// it with the ioa executor.
package tomachine

import (
	"fmt"

	"repro/internal/types"
)

// Bcast is the input action bcast(a)_p: the client at p submits value a.
type Bcast struct {
	A types.Value
	P types.ProcID
}

// ActionName returns "bcast".
func (Bcast) ActionName() string { return "bcast" }

// String renders the action.
func (b Bcast) String() string { return fmt.Sprintf("bcast(%q)_%v", string(b.A), b.P) }

// Brcv is the output action brcv(a)_{p,q}: delivery to the client at q of a
// value originally submitted at p.
type Brcv struct {
	A types.Value
	P types.ProcID // origin
	Q types.ProcID // destination
}

// ActionName returns "brcv".
func (Brcv) ActionName() string { return "brcv" }

// String renders the action.
func (b Brcv) String() string { return fmt.Sprintf("brcv(%q)_{%v,%v}", string(b.A), b.P, b.Q) }

// ToOrder is the internal action to-order(a, p): move the head of
// pending[p] to the end of the global queue.
type ToOrder struct {
	A types.Value
	P types.ProcID
}

// ActionName returns "to-order".
func (ToOrder) ActionName() string { return "to-order" }

// String renders the action.
func (t ToOrder) String() string { return fmt.Sprintf("to-order(%q,%v)", string(t.A), t.P) }

// Entry is one element of the global queue: a data value paired with the
// location at which it originated.
type Entry struct {
	A types.Value
	P types.ProcID
}

// Machine is the TO-machine state of Figure 3.
type Machine struct {
	procs types.ProcSet

	// Queue is the global totally ordered sequence of ⟨value, origin⟩ pairs.
	Queue []Entry
	// Pending[p] holds values submitted at p not yet placed in Queue.
	Pending [][]types.Value
	// Next[p] is the 1-based index in Queue of the next entry to deliver
	// at p.
	Next []int
}

// New creates a TO-machine over the given processor universe, in the
// initial state of Figure 3. Pending and Next are indexed by ProcID: procs
// is RangeProcSet(n).
func New(procs types.ProcSet) *Machine {
	n := procs.Size()
	m := &Machine{procs: procs, Pending: make([][]types.Value, n), Next: make([]int, n)}
	for p := range m.Next {
		m.Next[p] = 1
	}
	return m
}

// Procs returns the processor universe.
func (m *Machine) Procs() types.ProcSet { return m.procs }

// ApplyBcast applies the input bcast(a)_p (always enabled).
func (m *Machine) ApplyBcast(a types.Value, p types.ProcID) {
	m.Pending[p] = append(m.Pending[p], a)
}

// ToOrderEnabled reports whether to-order(a, p) is enabled: a is the head
// of pending[p].
func (m *Machine) ToOrderEnabled(a types.Value, p types.ProcID) bool {
	pend := m.Pending[p]
	return len(pend) > 0 && pend[0] == a
}

// ApplyToOrder performs to-order(a, p). It returns an error if the
// precondition fails, so callers that use the machine as an oracle get a
// diagnosis rather than silent corruption.
func (m *Machine) ApplyToOrder(a types.Value, p types.ProcID) error {
	if !m.ToOrderEnabled(a, p) {
		return fmt.Errorf("tomachine: to-order(%q,%v) not enabled: pending=%v", string(a), p, m.Pending[p])
	}
	m.Pending[p] = m.Pending[p][1:]
	m.Queue = append(m.Queue, Entry{A: a, P: p})
	return nil
}

// BrcvEnabled reports whether brcv(a)_{p,q} is enabled:
// queue(next[q]) = ⟨a, p⟩.
func (m *Machine) BrcvEnabled(a types.Value, p, q types.ProcID) bool {
	n := m.Next[q]
	return n >= 1 && n <= len(m.Queue) && m.Queue[n-1] == Entry{A: a, P: p}
}

// ApplyBrcv performs brcv(a)_{p,q}, erroring if disabled.
func (m *Machine) ApplyBrcv(a types.Value, p, q types.ProcID) error {
	if !m.BrcvEnabled(a, p, q) {
		return fmt.Errorf("tomachine: brcv(%q)_{%v,%v} not enabled: next[%v]=%d queue len %d",
			string(a), p, q, q, m.Next[q], len(m.Queue))
	}
	m.Next[q]++
	return nil
}

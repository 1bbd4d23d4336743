package tomachine

import (
	"fmt"

	"repro/internal/ioa"
	"repro/internal/types"
)

// The machine as an ioa automaton, for the randomized executions of the
// tests in this package, with the checks those executions make.

// Delivered returns the prefix of the queue already delivered at q.
func (m *Machine) Delivered(q types.ProcID) []Entry {
	return m.Queue[:m.Next[q]-1]
}

// CheckInvariants verifies the machine's basic structural invariants:
// next pointers stay within queue bounds.
func (m *Machine) CheckInvariants() error {
	for _, p := range m.procs.Members() {
		if n := m.Next[p]; n < 1 || n > len(m.Queue)+1 {
			return fmt.Errorf("tomachine: next[%v]=%d out of range 1..%d", p, n, len(m.Queue)+1)
		}
	}
	return nil
}

// Auto adapts Machine to the ioa framework.
type Auto struct {
	M *Machine
}

// NewAuto wraps a fresh machine over procs.
func NewAuto(procs types.ProcSet) *Auto { return &Auto{M: New(procs)} }

// Name returns "TO-machine".
func (a *Auto) Name() string { return "TO-machine" }

// Classify implements the signature of Figure 3.
func (a *Auto) Classify(act ioa.Action) ioa.Kind {
	switch act.(type) {
	case Bcast:
		return ioa.Input
	case Brcv:
		return ioa.Output
	case ToOrder:
		return ioa.Internal
	default:
		return ioa.NotInSignature
	}
}

// Input applies an input action.
func (a *Auto) Input(act ioa.Action) {
	b, ok := act.(Bcast)
	if !ok {
		panic(fmt.Sprintf("tomachine: unexpected input %v", act))
	}
	a.M.ApplyBcast(b.A, b.P)
}

// Enabled enumerates the enabled to-order and brcv actions.
func (a *Auto) Enabled(buf []ioa.Action) []ioa.Action {
	for _, p := range a.M.procs.Members() {
		if pend := a.M.Pending[p]; len(pend) > 0 {
			buf = append(buf, ToOrder{A: pend[0], P: p})
		}
		if n := a.M.Next[p]; n <= len(a.M.Queue) {
			e := a.M.Queue[n-1]
			buf = append(buf, Brcv{A: e.A, P: e.P, Q: p})
		}
	}
	return buf
}

// Perform applies a locally controlled action.
func (a *Auto) Perform(act ioa.Action) {
	var err error
	switch t := act.(type) {
	case ToOrder:
		err = a.M.ApplyToOrder(t.A, t.P)
	case Brcv:
		err = a.M.ApplyBrcv(t.A, t.P, t.Q)
	default:
		err = fmt.Errorf("tomachine: unexpected locally controlled action %v", act)
	}
	if err != nil {
		panic(err) // the executor only performs actions it was told are enabled
	}
}

// CheckInvariants defers to the machine.
func (a *Auto) CheckInvariants() error { return a.M.CheckInvariants() }

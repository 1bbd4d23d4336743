package vsmachine

import (
	"fmt"
	"math/rand"

	"repro/internal/ioa"
	"repro/internal/types"
)

// Auto adapts Machine to the ioa framework so it composes with the VStoTO
// automata (Section 6's VStoTO-system) and with randomized environments.
type Auto struct {
	M *Machine
	// Proposer, when non-nil, supplies candidate views for the unbounded
	// createview nondeterminism; enabled candidates are offered to the
	// executor as internal actions.
	Proposer func() []types.View
}

// NewAuto wraps a fresh machine.
func NewAuto(procs, p0 types.ProcSet) *Auto { return &Auto{M: New(procs, p0)} }

// NewWeakAuto wraps a fresh WeakVS-machine.
func NewWeakAuto(procs, p0 types.ProcSet) *Auto { return &Auto{M: NewWeak(procs, p0)} }

// Name returns "VS-machine".
func (a *Auto) Name() string { return "VS-machine" }

// Classify implements the signature of Figure 6.
func (a *Auto) Classify(act ioa.Action) ioa.Kind {
	switch act.(type) {
	case Gpsnd:
		return ioa.Input
	case Gprcv, Safe, Newview:
		return ioa.Output
	case Createview, VSOrder:
		return ioa.Internal
	default:
		return ioa.NotInSignature
	}
}

// Input applies gpsnd.
func (a *Auto) Input(act ioa.Action) {
	g, ok := act.(Gpsnd)
	if !ok {
		panic(fmt.Sprintf("vsmachine: unexpected input %v", act))
	}
	a.M.ApplyGpsnd(g.M, g.P)
}

// Enabled enumerates the enabled locally controlled actions. The unbounded
// createview nondeterminism is resolved externally (see ViewProposer); this
// enumeration covers newview, vs-order, gprcv and safe, which are all
// finitely enabled.
func (a *Auto) Enabled(buf []ioa.Action) []ioa.Action {
	m := a.M
	if a.Proposer != nil {
		for _, v := range a.Proposer() {
			if m.CreateviewEnabled(v) {
				buf = append(buf, Createview{V: v})
			}
		}
	}
	// Created and the slots are walked in ascending order: the executor
	// resolves its nondeterminism by drawing a random index into this
	// slice, so the enumeration order must be a pure function of the state.
	for _, v := range m.Created {
		for _, p := range v.Set.Members() {
			cur := m.CurrentViewID[p]
			if cur.IsBottom() || cur.Less(v.ID) {
				buf = append(buf, Newview{V: v.View, P: p})
			}
		}
	}
	for _, s := range m.slots {
		if len(s.pending) > 0 {
			buf = append(buf, VSOrder{M: s.pending[0], P: s.P, G: s.G})
		}
	}
	for _, q := range m.procs.Members() {
		g := m.CurrentViewID[q]
		if g.IsBottom() {
			continue
		}
		queue, s := m.Queue(g), m.slot(q, g)
		if n := int(s.next); n < len(queue) {
			e := queue[n]
			buf = append(buf, Gprcv{M: e.M, P: e.P, Q: q})
		}
		if ns := int(s.nextSafe) + 1; ns <= len(queue) {
			e := queue[ns-1]
			if m.SafeEnabled(e.M, e.P, q) {
				buf = append(buf, Safe{M: e.M, P: e.P, Q: q})
			}
		}
	}
	return buf
}

// Perform applies a locally controlled action.
func (a *Auto) Perform(act ioa.Action) {
	var err error
	switch t := act.(type) {
	case Createview:
		err = a.M.ApplyCreateview(t.V)
	case Newview:
		err = a.M.ApplyNewview(t.V, t.P)
	case VSOrder:
		err = a.M.ApplyVSOrder(t.M, t.P, t.G)
	case Gprcv:
		err = a.M.ApplyGprcv(t.M, t.P, t.Q)
	case Safe:
		err = a.M.ApplySafe(t.M, t.P, t.Q)
	default:
		err = fmt.Errorf("vsmachine: unexpected locally controlled action %v", act)
	}
	if err != nil {
		panic(err)
	}
}

// CheckInvariants defers to the machine (Lemma 4.1).
func (a *Auto) CheckInvariants() error { return a.M.CheckInvariants() }

// RandomViewProposer returns a Proposer that, with probability rate per
// round, offers one fresh view with random nonempty membership and an
// identifier above everything created so far. It resolves the unbounded
// createview nondeterminism in randomized safety runs.
func RandomViewProposer(a *Auto, rng *rand.Rand, rate float64) func() []types.View {
	return func() []types.View {
		if rng.Float64() >= rate {
			return nil
		}
		procs := a.M.procs.Members()
		var members []types.ProcID
		for _, p := range procs {
			if rng.Intn(2) == 0 {
				members = append(members, p)
			}
		}
		if len(members) == 0 {
			members = append(members, procs[rng.Intn(len(procs))])
		}
		max := a.M.MaxCreatedViewID()
		v := types.View{
			ID:  types.ViewID{Epoch: max.Epoch + 1, Proc: members[rng.Intn(len(members))]},
			Set: types.NewProcSet(members...),
		}
		return []types.View{v}
	}
}

package vstoto

import (
	"fmt"

	"repro/internal/ioa"
	"repro/internal/spec/tomachine"
	"repro/internal/spec/vsmachine"
	"repro/internal/types"
)

// LabelAct is the internal action label(a)_p.
type LabelAct struct {
	A types.Value
	P types.ProcID
}

// ActionName returns "label".
func (LabelAct) ActionName() string { return "label" }

// String renders the action.
func (l LabelAct) String() string { return fmt.Sprintf("label(%q)_%v", string(l.A), l.P) }

// ConfirmAct is the internal action confirm_p.
type ConfirmAct struct {
	P types.ProcID
}

// ActionName returns "confirm".
func (ConfirmAct) ActionName() string { return "confirm" }

// String renders the action.
func (c ConfirmAct) String() string { return fmt.Sprintf("confirm_%v", c.P) }

// ActKind tells the actions of VStoTO-system apart: Figure 10's, Figure
// 6's and the environment's. ActNone is no action of the system.
type ActKind uint8

// The kinds of Act.
const (
	ActNone ActKind = iota
	ActBcast
	ActBrcv
	ActLabel
	ActConfirm
	ActGpsnd
	ActGprcv
	ActSafe
	ActNewview
	ActCreateview
	ActVSOrder
)

// Act is an action of VStoTO-system as a value, which the explorer
// enumerates into a reused slice and classifies and applies with a switch;
// the ioa vocabulary boxes each. A field holds the parameter of that name:
// P the processor (the sender of gpsnd, gprcv, safe and vs-order, the
// origin of brcv), Q the receiver, M the message, A the value, V the view
// (for vs-order, V.ID is g). Action and actOf convert at the boundary.
type Act struct {
	Kind ActKind
	P, Q types.ProcID
	M    vsmachine.Msg
	A    types.Value
	V    types.View
}

// Action returns a in the ioa vocabulary (nil for ActNone).
func (a Act) Action() ioa.Action {
	switch a.Kind {
	case ActBcast:
		return tomachine.Bcast{A: a.A, P: a.P}
	case ActBrcv:
		return tomachine.Brcv{A: a.A, P: a.P, Q: a.Q}
	case ActLabel:
		return LabelAct{A: a.A, P: a.P}
	case ActConfirm:
		return ConfirmAct{P: a.P}
	case ActGpsnd:
		return vsmachine.Gpsnd{M: a.M, P: a.P}
	case ActGprcv:
		return vsmachine.Gprcv{M: a.M, P: a.P, Q: a.Q}
	case ActSafe:
		return vsmachine.Safe{M: a.M, P: a.P, Q: a.Q}
	case ActNewview:
		return vsmachine.Newview{V: a.V, P: a.P}
	case ActCreateview:
		return vsmachine.Createview{V: a.V}
	case ActVSOrder:
		return vsmachine.VSOrder{M: a.M, P: a.P, G: a.V.ID}
	}
	return nil
}

// String renders a as its ioa action does.
func (a Act) String() string { return fmt.Sprintf("%v", a.Action()) }

// actOf returns the Act of an ioa action, of kind ActNone when the action
// is none of VStoTO-system's.
func actOf(act ioa.Action) Act {
	switch t := act.(type) {
	case tomachine.Bcast:
		return Act{Kind: ActBcast, A: t.A, P: t.P}
	case tomachine.Brcv:
		return Act{Kind: ActBrcv, A: t.A, P: t.P, Q: t.Q}
	case LabelAct:
		return Act{Kind: ActLabel, A: t.A, P: t.P}
	case ConfirmAct:
		return Act{Kind: ActConfirm, P: t.P}
	case vsmachine.Gpsnd:
		return Act{Kind: ActGpsnd, M: t.M, P: t.P}
	case vsmachine.Gprcv:
		return Act{Kind: ActGprcv, M: t.M, P: t.P, Q: t.Q}
	case vsmachine.Safe:
		return Act{Kind: ActSafe, M: t.M, P: t.P, Q: t.Q}
	case vsmachine.Newview:
		return Act{Kind: ActNewview, V: t.V, P: t.P}
	case vsmachine.Createview:
		return Act{Kind: ActCreateview, V: t.V}
	case vsmachine.VSOrder:
		return Act{Kind: ActVSOrder, M: t.M, P: t.P, V: types.View{ID: t.G}}
	}
	return Act{}
}

// actSigs is each kind's signature: how the processor P names (Q, with
// byQ) holds it (Figure 9), and whether VS-machine holds it (Figure 6) and
// what of the machine it writes.
var actSigs = [...]struct {
	proc   ioa.Kind
	byQ    bool
	vs     bool
	writes vsmachine.Writes
}{
	ActBcast:      {proc: ioa.Input},
	ActBrcv:       {proc: ioa.Output, byQ: true},
	ActLabel:      {proc: ioa.Internal},
	ActConfirm:    {proc: ioa.Internal},
	ActGpsnd:      {ioa.Output, false, true, vsmachine.WritesSlots},
	ActGprcv:      {ioa.Input, true, true, vsmachine.WritesSlots},
	ActSafe:       {ioa.Input, true, true, vsmachine.WritesSlots},
	ActNewview:    {ioa.Input, false, true, vsmachine.WritesCurrent},
	ActCreateview: {vs: true},
	ActVSOrder:    {vs: true, writes: vsmachine.WritesSlots | vsmachine.WritesQueues},
}

// proc returns the one processor whose signature holds a, and how: none
// (NotInSignature) for createview and vs-order.
func (a Act) proc() (types.ProcID, ioa.Kind) {
	if sig := actSigs[a.Kind]; sig.byQ {
		return a.Q, sig.proc
	}
	return a.P, actSigs[a.Kind].proc
}

// applyVS performs a on m, which must have it enabled.
func (a Act) applyVS(m *vsmachine.Machine) {
	var err error
	switch a.Kind {
	case ActCreateview:
		err = m.ApplyCreateview(a.V)
	case ActNewview:
		err = m.ApplyNewview(a.V, a.P)
	case ActGpsnd:
		m.ApplyGpsnd(a.M, a.P)
	case ActGprcv:
		err = m.ApplyGprcv(a.M, a.P, a.Q)
	case ActSafe:
		err = m.ApplySafe(a.M, a.P, a.Q)
	case ActVSOrder:
		err = m.ApplyVSOrder(a.M, a.P, a.V.ID)
	}
	if err != nil {
		panic(err)
	}
}

// apply performs a at p, whose signature holds it.
func (a Act) apply(p *Proc) {
	lv, isValue := a.M.(LabeledValue)
	x, isSummary := a.M.(*Summary)
	switch {
	case a.Kind == ActBcast:
		p.Bcast(a.A)
	case a.Kind == ActBrcv:
		p.Brcv()
	case a.Kind == ActLabel:
		p.Label()
	case a.Kind == ActConfirm:
		p.Confirm()
	case a.Kind == ActNewview:
		p.Newview(a.V)
	case a.Kind == ActGpsnd && isValue:
		p.GpsndValue()
	case a.Kind == ActGpsnd && isSummary:
		p.CommitSummarySend()
	case a.Kind == ActGprcv && isValue:
		p.GprcvValue(lv)
	case a.Kind == ActGprcv && isSummary:
		p.GprcvSummary(a.P, x)
	case a.Kind == ActSafe && isValue:
		p.SafeValue(lv)
	case a.Kind == ActSafe && isSummary:
		p.SafeSummary(a.P)
	default:
		panic(fmt.Sprintf("vstoto: %v (payload %T) is not an action of VStoTO_%v", a.Action(), a.M, p.id))
	}
}

// appendActs appends p's enabled locally controlled actions (Figure 10),
// with the state-exchange summary gpsnd would carry built in fx (see
// procEffects).
func (p *Proc) appendActs(buf []Act, fx *procEffects) []Act {
	if v, ok := p.LabelEnabled(); ok {
		buf = append(buf, Act{Kind: ActLabel, A: v, P: p.id})
	}
	if lv, ok := p.GpsndValueEnabled(); ok {
		buf = append(buf, Act{Kind: ActGpsnd, M: lv, P: p.id})
	}
	if p.GpsndSummaryEnabled() {
		buf = append(buf, Act{Kind: ActGpsnd, M: p.summaryIn(fx), P: p.id})
	}
	if p.ConfirmEnabled() {
		buf = append(buf, Act{Kind: ActConfirm, P: p.id})
	}
	if q, v, ok := p.BrcvEnabled(); ok {
		buf = append(buf, Act{Kind: ActBrcv, A: v, P: q, Q: p.id})
	}
	return buf
}

// Auto adapts one VStoTO_p to the ioa framework. Its action vocabulary is
// exactly Figure 9's signature: bcast/brcv at the client interface (shared
// with TO-machine's action types) and gpsnd/gprcv/safe/newview at the VS
// interface (shared with VS-machine's action types), plus the internal
// label and confirm. Each method converts to an Act and defers to it.
type Auto struct {
	P *Proc
}

// NewAuto wraps a fresh VStoTO_p with history tracking on (the randomized
// safety checks need it).
func NewAuto(id types.ProcID, qs types.QuorumSystem, p0 types.ProcSet) *Auto {
	p := NewProc(id, qs, p0)
	p.TrackHistory = true
	return &Auto{P: p}
}

// Name returns "VStoTO_pN".
func (a *Auto) Name() string { return fmt.Sprintf("VStoTO_%v", a.P.id) }

// Classify implements Figure 9's signature for this processor.
func (a *Auto) Classify(act ioa.Action) ioa.Kind {
	if p, kind := actOf(act).proc(); p == a.P.id {
		return kind
	}
	return ioa.NotInSignature
}

// Input applies an input action (as Perform does).
func (a *Auto) Input(act ioa.Action) { a.Perform(act) }

// Enabled enumerates the enabled locally controlled actions of Figure 10.
func (a *Auto) Enabled(buf []ioa.Action) []ioa.Action {
	for _, act := range a.P.appendActs(nil, nil) {
		buf = append(buf, act.Action())
	}
	return buf
}

// Perform applies a locally controlled action.
func (a *Auto) Perform(act ioa.Action) { actOf(act).apply(a.P) }

package vstoto

import (
	"maps"
	"slices"

	"repro/internal/ioa"
	"repro/internal/spec/tomachine"
	"repro/internal/spec/vsmachine"
)

// Clone returns a copy of the processor state that any action can be
// applied to without changing p. Maps are copied, and so are the slices
// of runs and safe counts; the summaries GotState refers to are shared
// (immutable once sent). Sequences, content runs included, are shared,
// capped at their length: the automaton only appends to or reslices them,
// so neither side's append is visible to the other (the convention
// recordOrder and SummaryMessage already rely on; labelRuns.set keeps it
// for the runs).
func (p *Proc) Clone() *Proc { return p.cloneFor(nil) }

// cloneFor is Clone for one action: only the state act's effect in
// proc.go writes in place is copied, the rest is shared with p. An action
// the table does not name (nil included) copies all of it.
func (p *Proc) cloneFor(act ioa.Action) *Proc {
	out := *p
	out.Buffer, out.Order, out.Delay = slices.Clip(p.Buffer), slices.Clip(p.Order), slices.Clip(p.Delay)
	switch act.(type) {
	case tomachine.Bcast, tomachine.Brcv, vsmachine.Gpsnd, vsmachine.Newview, ConfirmAct: // newview replaces its state
	case LabelAct:
		out.content = p.content.clone()
	case vsmachine.Gprcv:
		out.content, out.GotState = p.content.clone(), maps.Clone(p.GotState)
		out.Established, out.BuildOrder = maps.Clone(p.Established), maps.Clone(p.BuildOrder)
	case vsmachine.Safe:
		out.SafeExch, out.safe.prefix = maps.Clone(p.SafeExch), slices.Clone(p.safe.prefix)
	default:
		out.content, out.GotState, out.SafeExch = p.content.clone(), maps.Clone(p.GotState), maps.Clone(p.SafeExch)
		out.safe.prefix, out.Established, out.BuildOrder = slices.Clone(p.safe.prefix), maps.Clone(p.Established), maps.Clone(p.BuildOrder)
	}
	return &out
}

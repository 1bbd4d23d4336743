package vstoto

import (
	"maps"
	"slices"

	"repro/internal/ioa"
	"repro/internal/spec/tomachine"
	"repro/internal/spec/vsmachine"
)

// Clone returns a copy of the processor state that any action can be
// applied to without changing p. Maps are copied; the summaries GotState
// refers to are shared (immutable once sent). Sequences are shared, capped
// at their length: the automaton only appends to or reslices them, so
// neither side's append is visible to the other (the convention
// recordOrder and SummaryMessage already rely on).
func (p *Proc) Clone() *Proc { return p.cloneFor(nil) }

// cloneFor is Clone for one action: only the maps act's effect in proc.go
// writes are copied, the rest are shared with p. An action the table does
// not name (nil included) copies every map.
func (p *Proc) cloneFor(act ioa.Action) *Proc {
	out := *p
	out.Buffer, out.Order, out.Delay = slices.Clip(p.Buffer), slices.Clip(p.Order), slices.Clip(p.Delay)
	switch act.(type) {
	case tomachine.Bcast, tomachine.Brcv, vsmachine.Gpsnd, vsmachine.Newview, ConfirmAct: // newview replaces maps
	case LabelAct:
		out.Content = maps.Clone(p.Content)
	case vsmachine.Gprcv:
		out.Content, out.GotState = maps.Clone(p.Content), maps.Clone(p.GotState)
		out.Established, out.BuildOrder = maps.Clone(p.Established), maps.Clone(p.BuildOrder)
	case vsmachine.Safe:
		out.SafeExch, out.SafeLabels = maps.Clone(p.SafeExch), maps.Clone(p.SafeLabels)
	default:
		out.Content, out.GotState, out.SafeExch = maps.Clone(p.Content), maps.Clone(p.GotState), maps.Clone(p.SafeExch)
		out.SafeLabels, out.Established, out.BuildOrder = maps.Clone(p.SafeLabels), maps.Clone(p.Established), maps.Clone(p.BuildOrder)
	}
	return &out
}

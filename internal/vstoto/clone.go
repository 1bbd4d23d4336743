package vstoto

import (
	"maps"
	"slices"
)

// Clone returns a copy of the processor state that any action can be
// applied to without changing p. Maps are copied; the summaries GotState
// refers to are shared (immutable once sent). Sequences are shared, capped
// at their length: the automaton only appends to or reslices them, so
// neither side's append is visible to the other (the convention
// recordOrder and SummaryMessage already rely on).
func (p *Proc) Clone() *Proc {
	out := *p
	out.Buffer, out.Order, out.Delay = slices.Clip(p.Buffer), slices.Clip(p.Order), slices.Clip(p.Delay)
	out.Content = maps.Clone(p.Content)
	out.GotState = maps.Clone(p.GotState)
	out.SafeExch = maps.Clone(p.SafeExch)
	out.SafeLabels = maps.Clone(p.SafeLabels)
	out.Established = maps.Clone(p.Established)
	out.BuildOrder = maps.Clone(p.BuildOrder)
	return &out
}

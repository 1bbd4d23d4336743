package vstoto

import "slices"

// Clone returns a copy of the processor state that any action can be
// applied to without changing p. The content runs and the safe counts are
// copied; everything else is shared. Sequences, content runs included, are
// shared capped at their length: the automaton only appends to or reslices
// them, so neither side's append is visible to the other (the convention
// recordOrder and SummaryMessage already rely on; labelRuns.set keeps it
// for the runs). GotState, SafeExch, Established and BuildOrder are never
// written in place (cowSet), and the summaries GotState refers to are
// immutable once sent.
func (p *Proc) Clone() *Proc { return p.cloneFor(Act{}, nil) }

// cloneFor is Clone for one action, into out (allocated when nil): only
// the state a's effect in proc.go writes in place is copied, the rest is
// shared with p. An action the table does not name (ActNone included)
// copies all of it.
func (p *Proc) cloneFor(a Act, out *Proc) *Proc {
	if out == nil {
		out = new(Proc)
	}
	*out = *p
	out.Buffer, out.Order, out.Delay = slices.Clip(p.Buffer), slices.Clip(p.Order), slices.Clip(p.Delay)
	switch a.Kind {
	case ActBcast, ActBrcv, ActGpsnd, ActNewview, ActConfirm: // newview replaces its state
	case ActLabel, ActGprcv:
		out.content = p.content.clone()
	case ActSafe:
		out.safe = slices.Clone(p.safe)
	default:
		out.content, out.safe = p.content.clone(), slices.Clone(p.safe)
	}
	return out
}

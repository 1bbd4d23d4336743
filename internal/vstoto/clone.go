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
func (p *Proc) Clone() *Proc { return p.cloneInto(Act{}, nil, nil) }

// cloneInto is Clone for one action, into out (allocated when nil): only
// the state a's effect in proc.go writes in place is copied, the rest is
// shared with p. An action the table does not name (ActNone included)
// copies all of it. With fx, the copy's effects, this copy's included,
// are built in fx (see procEffects), which the last copy built there gives
// up.
func (p *Proc) cloneInto(a Act, out *Proc, fx *procEffects) *Proc {
	if out == nil {
		out = new(Proc)
	}
	*out = *p
	if fx != nil {
		fx.adopt(out, p.procFixed)
	}
	out.Buffer, out.Order, out.Delay = slices.Clip(p.Buffer), slices.Clip(p.Order), slices.Clip(p.Delay)
	switch a.Kind {
	case ActBcast, ActBrcv, ActGpsnd, ActNewview, ActConfirm: // newview replaces its state
	case ActLabel, ActGprcv:
		out.content = p.content.copyIn(fx)
	case ActSafe:
		out.safe = cloneIn(fx.originCounts(), p.safe)
	default:
		out.content, out.safe = p.content.copyIn(fx), cloneIn(fx.originCounts(), p.safe)
	}
	return out
}

// Package props records timed external traces and evaluates the paper's
// conditional performance and fault-tolerance properties over them:
// TO-property(b, d, Q) of Figure 5, VS-property(b, d, Q) of Figure 7, and
// the phase decomposition of the Section 7 argument (Figure 12).
//
// The evaluators do two jobs: (a) verdicts — does a recorded execution
// satisfy the property for given parameters; and (b) measurement — the
// smallest stabilization interval l′ and delivery bound d that make the
// property hold, which is what the experiment tables report against the
// analytic bounds.
package props

import (
	"fmt"

	"repro/internal/check"
	"repro/internal/sim"
	"repro/internal/types"
)

// Kind discriminates timed trace events.
type Kind int

// Event kinds: client-level TO events, VS-interface events, and failure
// status changes are kept in one log so the evaluators can split executions
// at stabilization points.
const (
	TOBcast Kind = iota
	TOBrcv
	VSGpsnd
	VSGprcv
	VSSafe
	VSNewview
)

// String renders the kind.
func (k Kind) String() string {
	switch k {
	case TOBcast:
		return "bcast"
	case TOBrcv:
		return "brcv"
	case VSGpsnd:
		return "gpsnd"
	case VSGprcv:
		return "gprcv"
	case VSSafe:
		return "safe"
	case VSNewview:
		return "newview"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one timed external event.
type Event struct {
	T    sim.Time
	Kind Kind
	// P is the location at which the event occurs (sender for bcast/gpsnd,
	// receiver for brcv/gprcv/safe, installer for newview).
	P types.ProcID
	// From is the originating location for brcv/gprcv/safe.
	From types.ProcID
	// Value carries the client data value for TO events.
	Value types.Value
	// ValueSeq disambiguates repeated values: the per-origin submission
	// index assigned at bcast and propagated to the matching brcv events.
	ValueSeq int
	// Msg identifies the VS message for gpsnd/gprcv/safe.
	Msg check.MsgID
	// View carries the installed view for newview events.
	View types.View
}

// String renders the event.
func (e Event) String() string {
	switch e.Kind {
	case TOBcast:
		return fmt.Sprintf("%v bcast(%q#%d)_%v", e.T, string(e.Value), e.ValueSeq, e.P)
	case TOBrcv:
		return fmt.Sprintf("%v brcv(%q#%d)_{%v,%v}", e.T, string(e.Value), e.ValueSeq, e.From, e.P)
	case VSGpsnd:
		return fmt.Sprintf("%v gpsnd(%v)_%v", e.T, e.Msg, e.P)
	case VSGprcv:
		return fmt.Sprintf("%v gprcv(%v)_{%v,%v}", e.T, e.Msg, e.From, e.P)
	case VSSafe:
		return fmt.Sprintf("%v safe(%v)_{%v,%v}", e.T, e.Msg, e.From, e.P)
	case VSNewview:
		return fmt.Sprintf("%v newview(%v)_%v", e.T, e.View, e.P)
	default:
		return fmt.Sprintf("%v ?", e.T)
	}
}

// Log accumulates timed events in occurrence order — or, given a Sink,
// streams them there and keeps none. Initial records the
// distinguished initial view of the processors that start inside it (there
// is no newview event for the initial view, but the property evaluators
// need to know it).
type Log struct {
	Events  []Event
	Initial map[types.ProcID]types.View

	// Sink, when non-nil, receives every Append in place of Events: a log
	// that streams does not also accumulate, or a long-running daemon would
	// hold its whole history in memory that nothing reads. InitialSink
	// additionally observes every SetInitial. The live daemon streams each
	// event to its on-disk JSONL delivery log this way, so the trace
	// survives a process kill up to the last flushed line.
	Sink        func(Event)
	InitialSink func(types.ProcID, types.View)
}

// Append adds an event: to the Sink if there is one, else to Events.
func (l *Log) Append(e Event) {
	if l.Sink != nil {
		l.Sink(e)
		return
	}
	l.Events = append(l.Events, e)
}

// SetInitial records that p starts in view v.
func (l *Log) SetInitial(p types.ProcID, v types.View) {
	if l.Initial == nil {
		l.Initial = make(map[types.ProcID]types.View)
	}
	l.Initial[p] = v
	if l.InitialSink != nil {
		l.InitialSink(p, v)
	}
}

// Until returns a log view containing only events strictly before t,
// sharing the initial-view table. Use it to evaluate a property over a
// window of a longer execution.
func (l *Log) Until(t sim.Time) *Log {
	out := &Log{Initial: l.Initial}
	for _, e := range l.Events {
		if e.T < t {
			out.Events = append(out.Events, e)
		}
	}
	return out
}

// Filter returns the events satisfying pred, in order.
func (l *Log) Filter(pred func(Event) bool) []Event {
	var out []Event
	for _, e := range l.Events {
		if pred(e) {
			out = append(out, e)
		}
	}
	return out
}

// Len returns the number of recorded events.
func (l *Log) Len() int { return len(l.Events) }

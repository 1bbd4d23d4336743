package props

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/sim"
	"repro/internal/types"
)

func msAt(n int) sim.Time { return sim.Time(time.Duration(n) * time.Millisecond) }

func viewOf(epoch int64, members ...types.ProcID) types.View {
	return types.View{ID: types.ViewID{Epoch: epoch, Proc: members[0]}, Set: types.NewProcSet(members...)}
}

// buildVSLog constructs a log in which Q = {0,1} partitions away at l=10ms,
// converges at 14ms, and one message (sent 20ms) becomes safe at both
// members by 25ms.
func buildVSLog() (*Log, types.ProcSet, sim.Time) {
	q := types.NewProcSet(0, 1)
	final := viewOf(2, 0, 1)
	log := &Log{}
	for _, p := range types.RangeProcSet(3).Members() {
		log.SetInitial(p, types.InitialView(types.RangeProcSet(3)))
	}
	log.Append(Event{T: msAt(12), Kind: VSNewview, P: 0, View: final})
	log.Append(Event{T: msAt(14), Kind: VSNewview, P: 1, View: final})
	m := check.MsgID{Sender: 0, Seq: 1}
	log.Append(Event{T: msAt(20), Kind: VSGpsnd, P: 0, Msg: m})
	log.Append(Event{T: msAt(22), Kind: VSGprcv, P: 0, From: 0, Msg: m})
	log.Append(Event{T: msAt(22), Kind: VSGprcv, P: 1, From: 0, Msg: m})
	log.Append(Event{T: msAt(24), Kind: VSSafe, P: 0, From: 0, Msg: m})
	log.Append(Event{T: msAt(25), Kind: VSSafe, P: 1, From: 0, Msg: m})
	return log, q, msAt(10)
}

func TestMeasureVSConvergedAndLags(t *testing.T) {
	log, q, l := buildVSLog()
	m := MeasureVS(log, q, l)
	if !m.Converged {
		t.Fatal("not converged")
	}
	if m.LPrime != 4*time.Millisecond {
		t.Errorf("l' = %v, want 4ms", m.LPrime)
	}
	if m.MsgsMeasured != 1 || m.IncompleteSafe != 0 {
		t.Errorf("msgs=%d incomplete=%d", m.MsgsMeasured, m.IncompleteSafe)
	}
	// Lag: last safe 25ms − max(send 20ms, stab 14ms) = 5ms.
	if m.MaxSafeLag != 5*time.Millisecond {
		t.Errorf("safe lag = %v, want 5ms", m.MaxSafeLag)
	}
	if err := CheckVSProperty(log, q, l, 4*time.Millisecond, 5*time.Millisecond); err != nil {
		t.Errorf("property at exact bounds failed: %v", err)
	}
	if err := CheckVSProperty(log, q, l, 3*time.Millisecond, 5*time.Millisecond); err == nil {
		t.Error("b below measured accepted")
	}
	if err := CheckVSProperty(log, q, l, 4*time.Millisecond, 4*time.Millisecond); err == nil {
		t.Error("d below measured accepted")
	}
}

func TestMeasureVSNotConvergedCases(t *testing.T) {
	q := types.NewProcSet(0, 1)
	// Case: one member never gets a view with membership exactly Q.
	log := &Log{}
	log.Append(Event{T: msAt(5), Kind: VSNewview, P: 0, View: viewOf(2, 0, 1)})
	log.Append(Event{T: msAt(6), Kind: VSNewview, P: 1, View: viewOf(3, 0, 1, 2)})
	if m := MeasureVS(log, q, 0); m.Converged {
		t.Error("converged despite wrong membership")
	}
	// Case: members in different views with the right membership.
	log2 := &Log{}
	log2.Append(Event{T: msAt(5), Kind: VSNewview, P: 0, View: viewOf(2, 0, 1)})
	log2.Append(Event{T: msAt(6), Kind: VSNewview, P: 1, View: viewOf(4, 0, 1)})
	if m := MeasureVS(log2, q, 0); m.Converged {
		t.Error("converged despite different ids")
	}
	// Case: missing safe events count as incomplete.
	log3, q3, l3 := buildVSLog()
	log3.Events = log3.Events[:len(log3.Events)-1] // drop p1's safe
	m := MeasureVS(log3, q3, l3)
	if m.IncompleteSafe != 1 {
		t.Errorf("IncompleteSafe = %d", m.IncompleteSafe)
	}
	if err := CheckVSProperty(log3, q3, l3, time.Second, time.Second); err == nil {
		t.Error("incomplete safe accepted")
	}
}

func TestMeasureVSInitialViewIsFinal(t *testing.T) {
	// No newview events at all: the initial view is the final view, l'=0.
	q := types.RangeProcSet(2)
	log := &Log{}
	for _, p := range q.Members() {
		log.SetInitial(p, types.InitialView(q))
	}
	m := check.MsgID{Sender: 0, Seq: 1}
	log.Append(Event{T: msAt(1), Kind: VSGpsnd, P: 0, Msg: m})
	log.Append(Event{T: msAt(2), Kind: VSSafe, P: 0, From: 0, Msg: m})
	log.Append(Event{T: msAt(3), Kind: VSSafe, P: 1, From: 0, Msg: m})
	got := MeasureVS(log, q, 0)
	if !got.Converged || got.LPrime != 0 {
		t.Fatalf("measure = %+v", got)
	}
	if got.MsgsMeasured != 1 || got.MaxSafeLag != 2*time.Millisecond {
		t.Errorf("msgs=%d lag=%v", got.MsgsMeasured, got.MaxSafeLag)
	}
}

func TestMeasureTO(t *testing.T) {
	q := types.NewProcSet(0, 1)
	log := &Log{}
	// Value sent from inside Q before stabilization.
	log.Append(Event{T: msAt(5), Kind: TOBcast, P: 0, Value: "a", ValueSeq: 1})
	// Value from outside Q delivered into Q (clause c).
	log.Append(Event{T: msAt(18), Kind: TOBrcv, P: 0, From: 2, Value: "x", ValueSeq: 1})
	log.Append(Event{T: msAt(26), Kind: TOBrcv, P: 1, From: 2, Value: "x", ValueSeq: 1})
	// Deliveries of "a".
	log.Append(Event{T: msAt(21), Kind: TOBrcv, P: 0, From: 0, Value: "a", ValueSeq: 1})
	log.Append(Event{T: msAt(23), Kind: TOBrcv, P: 1, From: 0, Value: "a", ValueSeq: 1})

	l, lp := msAt(10), 5*time.Millisecond // stab = 15ms
	m := MeasureTO(log, q, l, lp)
	if m.ValuesMeasured != 2 || m.Incomplete != 0 {
		t.Fatalf("measure = %+v", m)
	}
	// "a": last delivery 23 − max(5, 15) = 8ms.
	if m.MaxSendLag != 8*time.Millisecond {
		t.Errorf("send lag = %v, want 8ms", m.MaxSendLag)
	}
	// "x": first recv at 18 → last 26 − max(18, 15) = 8ms.
	if m.MaxRelayLag != 8*time.Millisecond {
		t.Errorf("relay lag = %v, want 8ms", m.MaxRelayLag)
	}
	if err := CheckTOProperty(log, q, l, lp, 8*time.Millisecond); err != nil {
		t.Errorf("property at exact bound failed: %v", err)
	}
	if err := CheckTOProperty(log, q, l, lp, 7*time.Millisecond); err == nil {
		t.Error("d below measured accepted")
	}
}

func TestMeasureTOIncomplete(t *testing.T) {
	q := types.NewProcSet(0, 1)
	log := &Log{}
	log.Append(Event{T: msAt(5), Kind: TOBcast, P: 0, Value: "a", ValueSeq: 1})
	log.Append(Event{T: msAt(7), Kind: TOBrcv, P: 0, From: 0, Value: "a", ValueSeq: 1})
	// p1 never delivers.
	m := MeasureTO(log, q, 0, 0)
	if m.Incomplete != 1 {
		t.Fatalf("Incomplete = %d", m.Incomplete)
	}
	if err := CheckTOProperty(log, q, 0, 0, time.Hour); err == nil {
		t.Error("incomplete delivery accepted")
	}
}

func TestLogUntilAndFilter(t *testing.T) {
	log := &Log{}
	log.SetInitial(0, types.InitialView(types.RangeProcSet(1)))
	log.Append(Event{T: msAt(1), Kind: TOBcast, P: 0, Value: "a"})
	log.Append(Event{T: msAt(5), Kind: TOBcast, P: 0, Value: "b"})
	cut := log.Until(msAt(5))
	if cut.Len() != 1 || cut.Initial == nil {
		t.Fatalf("Until = %d events, initial %v", cut.Len(), cut.Initial)
	}
	got := log.Filter(func(e Event) bool { return e.Value == "b" })
	if len(got) != 1 || got[0].T != msAt(5) {
		t.Fatalf("Filter = %v", got)
	}
}

// A log with a Sink streams: every event reaches the sink, in order, and
// none is retained (the live daemon's log would otherwise grow with its
// whole history).
func TestLogWithSinkStreamsAndKeepsNothing(t *testing.T) {
	var streamed []Event
	log := &Log{Sink: func(e Event) { streamed = append(streamed, e) }}
	for i := 1; i <= 3; i++ {
		log.Append(Event{T: msAt(i), Kind: TOBcast, P: 0, ValueSeq: i})
	}
	if log.Len() != 0 || len(log.Events) != 0 {
		t.Fatalf("streaming log retained %d events", log.Len())
	}
	if len(streamed) != 3 || streamed[0].ValueSeq != 1 || streamed[2].ValueSeq != 3 {
		t.Fatalf("sink saw %v", streamed)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	log := &Log{}
	log.SetInitial(0, types.InitialView(types.NewProcSet(0, 1)))
	log.Append(Event{T: msAt(1), Kind: TOBcast, P: 0, Value: "v|with|bars", ValueSeq: 3})
	log.Append(Event{T: msAt(2), Kind: TOBrcv, P: 1, From: 0, Value: "v|with|bars", ValueSeq: 3})
	log.Append(Event{T: msAt(3), Kind: VSGpsnd, P: 0, Msg: check.MsgID{Sender: 0, Seq: 7}})
	log.Append(Event{T: msAt(4), Kind: VSGprcv, P: 1, From: 0, Msg: check.MsgID{Sender: 0, Seq: 7}})
	log.Append(Event{T: msAt(5), Kind: VSSafe, P: 1, From: 0, Msg: check.MsgID{Sender: 0, Seq: 7}})
	log.Append(Event{T: msAt(6), Kind: VSNewview, P: 1, View: viewOf(2, 0, 1)})

	var buf bytes.Buffer
	if err := log.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != log.Len() {
		t.Fatalf("round trip lost events: %d vs %d", got.Len(), log.Len())
	}
	for i := range log.Events {
		a, b := log.Events[i], got.Events[i]
		if a.T != b.T || a.Kind != b.Kind || a.P != b.P || a.From != b.From ||
			a.Value != b.Value || a.ValueSeq != b.ValueSeq || a.Msg != b.Msg ||
			a.View.ID != b.View.ID || !a.View.Set.Equal(b.View.Set) {
			t.Fatalf("event %d differs: %+v vs %+v", i, a, b)
		}
	}
	iv, ok := got.Initial[0]
	if !ok || iv.ID != types.G0() || !iv.Set.Equal(types.NewProcSet(0, 1)) {
		t.Fatalf("initial view lost: %v %t", iv, ok)
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL(bytes.NewBufferString("not json\n")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadJSONL(bytes.NewBufferString(`{"kind":"martian","p":0}` + "\n")); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestEventStrings(t *testing.T) {
	events := []Event{
		{Kind: TOBcast, P: 0, Value: "a", ValueSeq: 1},
		{Kind: TOBrcv, P: 1, From: 0, Value: "a", ValueSeq: 1},
		{Kind: VSGpsnd, P: 0, Msg: check.MsgID{Sender: 0, Seq: 1}},
		{Kind: VSGprcv, P: 1, From: 0, Msg: check.MsgID{Sender: 0, Seq: 1}},
		{Kind: VSSafe, P: 1, From: 0, Msg: check.MsgID{Sender: 0, Seq: 1}},
		{Kind: VSNewview, P: 1, View: viewOf(2, 0, 1)},
	}
	for _, e := range events {
		if e.String() == "" || e.Kind.String() == "?" {
			t.Errorf("bad String for %+v", e)
		}
	}
}

func TestMeasureDeliveryLatency(t *testing.T) {
	procs := types.NewProcSet(0, 1)
	log := &Log{}
	// Value 1: sent at 10ms, last delivery 14ms → 4ms.
	log.Append(Event{T: msAt(10), Kind: TOBcast, P: 0, Value: "a", ValueSeq: 1})
	log.Append(Event{T: msAt(12), Kind: TOBrcv, P: 0, From: 0, Value: "a", ValueSeq: 1})
	log.Append(Event{T: msAt(14), Kind: TOBrcv, P: 1, From: 0, Value: "a", ValueSeq: 1})
	// Value 2: sent at 20ms, last delivery 28ms → 8ms.
	log.Append(Event{T: msAt(20), Kind: TOBcast, P: 1, Value: "b", ValueSeq: 1})
	log.Append(Event{T: msAt(22), Kind: TOBrcv, P: 1, From: 1, Value: "b", ValueSeq: 1})
	log.Append(Event{T: msAt(28), Kind: TOBrcv, P: 0, From: 1, Value: "b", ValueSeq: 1})
	// Value 3: incomplete (only delivered at p0).
	log.Append(Event{T: msAt(30), Kind: TOBcast, P: 0, Value: "c", ValueSeq: 2})
	log.Append(Event{T: msAt(31), Kind: TOBrcv, P: 0, From: 0, Value: "c", ValueSeq: 2})

	s := MeasureDeliveryLatency(log, procs)
	if s.Count != 2 || s.Incomplete != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Min != 4*time.Millisecond || s.Max != 8*time.Millisecond {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
	if s.Mean != 6*time.Millisecond {
		t.Errorf("mean = %v", s.Mean)
	}
	if s.String() == "" {
		t.Error("empty String")
	}
	empty := MeasureDeliveryLatency(&Log{}, procs)
	if empty.Count != 0 || empty.String() == "" {
		t.Errorf("empty stats = %+v", empty)
	}
}

func TestMeasurePhases(t *testing.T) {
	// Construct a log with a clean three-phase structure: newviews by
	// 14ms, summaries safe by 20ms, one post-exchange value delivered with
	// 3ms lag.
	q := types.NewProcSet(0, 1)
	final := viewOf(2, 0, 1)
	log := &Log{}
	log.Append(Event{T: msAt(12), Kind: VSNewview, P: 0, View: final})
	log.Append(Event{T: msAt(14), Kind: VSNewview, P: 1, View: final})
	// State-exchange summaries: first gpsnd of each member in the final view.
	s0 := check.MsgID{Sender: 0, Seq: 1}
	s1 := check.MsgID{Sender: 1, Seq: 1}
	log.Append(Event{T: msAt(14), Kind: VSGpsnd, P: 0, Msg: s0})
	log.Append(Event{T: msAt(15), Kind: VSGpsnd, P: 1, Msg: s1})
	log.Append(Event{T: msAt(18), Kind: VSSafe, P: 0, From: 0, Msg: s0})
	log.Append(Event{T: msAt(18), Kind: VSSafe, P: 1, From: 0, Msg: s0})
	log.Append(Event{T: msAt(20), Kind: VSSafe, P: 0, From: 1, Msg: s1})
	log.Append(Event{T: msAt(19), Kind: VSSafe, P: 1, From: 1, Msg: s1})
	// A post-exchange value, delivered everywhere by 28ms.
	log.Append(Event{T: msAt(25), Kind: TOBcast, P: 0, Value: "x", ValueSeq: 1})
	log.Append(Event{T: msAt(27), Kind: TOBrcv, P: 0, From: 0, Value: "x", ValueSeq: 1})
	log.Append(Event{T: msAt(28), Kind: TOBrcv, P: 1, From: 0, Value: "x", ValueSeq: 1})

	ph := MeasurePhases(log, q, msAt(10))
	if !ph.VS.Converged {
		t.Fatal("not converged")
	}
	if ph.VS.LPrime != 4*time.Millisecond {
		t.Errorf("l' = %v", ph.VS.LPrime)
	}
	// Exchange ends at the last summary safe (20ms) − stab (14ms) = 6ms.
	if ph.ExchangePhase != 6*time.Millisecond {
		t.Errorf("exchange = %v, want 6ms", ph.ExchangePhase)
	}
	// Post lag: delivery complete 28ms − send 25ms = 3ms.
	if ph.PostLag != 3*time.Millisecond {
		t.Errorf("post lag = %v, want 3ms", ph.PostLag)
	}
	if ph.Incomplete != 0 {
		t.Errorf("incomplete = %d", ph.Incomplete)
	}
}

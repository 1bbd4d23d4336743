package vstoto

import (
	"testing"

	"repro/internal/types"
)

func gid(epoch int64, proc types.ProcID) types.ViewID {
	return types.ViewID{Epoch: epoch, Proc: proc}
}

// valueOf returns the value p's content binds l to ("" when unbound).
func valueOf(p *Proc, l types.Label) types.Value {
	a, _ := p.ValueOf(l)
	return a
}

func newTestProc(id types.ProcID, n int) *Proc {
	procs := types.RangeProcSet(n)
	p := NewProc(id, types.Majorities{Universe: procs}, procs)
	p.TrackHistory = true
	return p
}

func TestInitialStateInsideAndOutsideP0(t *testing.T) {
	procs := types.RangeProcSet(3)
	qs := types.Majorities{Universe: procs}
	in := NewProc(0, qs, types.NewProcSet(0, 1))
	if in.Current.ID != types.G0() || in.HighPrimary != types.G0() {
		t.Errorf("member of P0: current=%v high=%v", in.Current.ID, in.HighPrimary)
	}
	out := NewProc(2, qs, types.NewProcSet(0, 1))
	if !out.Current.ID.IsBottom() || !out.HighPrimary.IsBottom() {
		t.Errorf("outsider: current=%v high=%v", out.Current.ID, out.HighPrimary)
	}
	if out.Primary() {
		t.Error("⊥-view processor reports primary")
	}
}

func TestLabelAssignsSequentialLabels(t *testing.T) {
	p := newTestProc(0, 3)
	p.Bcast("a")
	p.Bcast("b")
	l1 := p.Label()
	l2 := p.Label()
	if l1 != (types.Label{ID: types.G0(), Seqno: 1, Origin: 0}) {
		t.Errorf("l1 = %v", l1)
	}
	if l2.Seqno != 2 {
		t.Errorf("l2 = %v", l2)
	}
	if valueOf(p, l1) != "a" || valueOf(p, l2) != "b" {
		t.Error("content wrong")
	}
	if len(p.Buffer) != 2 || len(p.Delay) != 0 {
		t.Error("buffer/delay wrong")
	}
	if _, ok := p.LabelEnabled(); ok {
		t.Error("label enabled with empty delay")
	}
}

func TestLabelRequiresViewAndNormalStatus(t *testing.T) {
	procs := types.RangeProcSet(3)
	outsider := NewProc(2, types.Majorities{Universe: procs}, types.NewProcSet(0, 1))
	outsider.Bcast("stuck")
	if _, ok := outsider.LabelEnabled(); ok {
		t.Error("label enabled with ⊥ view")
	}
	p := newTestProc(0, 3)
	p.Bcast("x")
	p.Newview(types.View{ID: gid(2, 0), Set: types.RangeProcSet(3)})
	if _, ok := p.LabelEnabled(); ok {
		t.Error("label enabled during recovery (status=send)")
	}
}

func TestGpsndValueRequiresNormalAndBufferHead(t *testing.T) {
	p := newTestProc(0, 3)
	if _, ok := p.GpsndValueEnabled(); ok {
		t.Error("gpsnd enabled with empty buffer")
	}
	p.Bcast("a")
	p.Label()
	lv, ok := p.GpsndValueEnabled()
	if !ok || lv.A != "a" {
		t.Fatalf("gpsnd enabled=%t lv=%v", ok, lv)
	}
	got := p.GpsndValue()
	if got != lv || len(p.Buffer) != 0 {
		t.Error("gpsnd did not consume the buffer head")
	}
}

func TestNewviewResetsPerViewState(t *testing.T) {
	p := newTestProc(0, 3)
	p.Bcast("a")
	p.Label()
	p.SafeValue(LabeledValue{L: types.Label{ID: types.G0(), Seqno: 1, Origin: 0}, A: "a"})
	if p.safeLen() != 1 {
		t.Fatal("safe not recorded")
	}
	v2 := types.View{ID: gid(2, 1), Set: types.RangeProcSet(3)}
	p.Newview(v2)
	if p.Status != StatusSend || p.Current.ID != v2.ID {
		t.Errorf("status=%v current=%v", p.Status, p.Current.ID)
	}
	if len(p.Buffer) != 0 || p.safeLen() != 0 || len(p.GotState) != 0 || len(p.SafeExch) != 0 {
		t.Error("per-view state not reset")
	}
	if p.NextSeqno != 1 {
		t.Error("nextseqno not reset")
	}
	if p.ContentLen() == 0 {
		t.Error("content must survive view changes")
	}
}

// runStateExchange drives a full three-member state exchange at p with
// the given peer summaries, returning after establishment.
func runStateExchange(t *testing.T, p *Proc, v types.View, peers map[types.ProcID]*Summary) {
	t.Helper()
	p.Newview(v)
	own := p.GpsndSummary() // send + collect
	p.GprcvSummary(p.ID(), own)
	for q, x := range peers {
		p.GprcvSummary(q, x)
	}
	if p.Status != StatusNormal {
		t.Fatalf("exchange did not establish: status=%v gotstate=%d", p.Status, len(p.GotState))
	}
}

func TestEstablishPrimaryAdoptsFullOrder(t *testing.T) {
	p := newTestProc(0, 3)
	// p labeled two values in g0 and ordered them.
	p.Bcast("a")
	p.Bcast("b")
	la := p.Label()
	lb := p.Label()
	p.GprcvValue(LabeledValue{L: la, A: "a"})
	p.GprcvValue(LabeledValue{L: lb, A: "b"})

	// Peer knows an extra label from g0 that p never saw.
	lc := types.Label{ID: types.G0(), Seqno: 1, Origin: 1}
	peer := &Summary{
		Con:  map[types.Label]types.Value{lc: "c"},
		Ord:  []types.Label{lc},
		Next: 1,
		High: types.G0(),
	}
	other := &Summary{Con: map[types.Label]types.Value{}, Next: 1, High: types.G0()}

	v2 := types.View{ID: gid(2, 0), Set: types.RangeProcSet(3)}
	runStateExchange(t, p, v2, map[types.ProcID]*Summary{1: peer, 2: other})

	if !p.Primary() {
		t.Fatal("three of three is not primary?")
	}
	if p.HighPrimary != v2.ID {
		t.Errorf("highprimary = %v, want %v", p.HighPrimary, v2.ID)
	}
	// fullorder: chosenrep is the max-procid member with max high (all
	// g0) → p2, whose ord is empty; so everything appears in label order.
	want := []types.Label{lc, la, lb} // lc has origin 1 but seqno... all in g0:
	types.SortLabels(want)
	if len(p.Order) != 3 {
		t.Fatalf("order = %v", p.Order)
	}
	for i := range want {
		if p.Order[i] != want[i] {
			t.Fatalf("order = %v, want %v", p.Order, want)
		}
	}
	if valueOf(p, lc) != "c" {
		t.Error("peer content not merged")
	}
	if !p.IsEstablished(v2.ID) {
		t.Error("established not recorded")
	}
}

func TestEstablishNonPrimaryAdoptsShortOrder(t *testing.T) {
	p := newTestProc(0, 5) // majority of 5 needs 3; view of 2 is non-primary
	lx := types.Label{ID: types.G0(), Seqno: 1, Origin: 1}
	rep := &Summary{
		Con:  map[types.Label]types.Value{lx: "x"},
		Ord:  []types.Label{lx},
		Next: 2,
		High: types.G0(),
	}
	v2 := types.View{ID: gid(2, 0), Set: types.NewProcSet(0, 1)}
	runStateExchange(t, p, v2, map[types.ProcID]*Summary{1: rep})

	if p.Primary() {
		t.Fatal("two of five considered primary")
	}
	// shortorder = chosenrep's ord. chosenrep = max procid among max-high
	// = p1 (p0's high is also g0 but p1 > p0).
	if len(p.Order) != 1 || p.Order[0] != lx {
		t.Fatalf("order = %v, want [%v]", p.Order, lx)
	}
	if p.HighPrimary != types.G0() {
		t.Errorf("highprimary = %v, want g0 (maxprimary)", p.HighPrimary)
	}
	if p.NextConfirm != 2 {
		t.Errorf("nextconfirm = %d, want maxnextconfirm 2", p.NextConfirm)
	}
}

func TestConfirmAndBrcvFlow(t *testing.T) {
	p := newTestProc(0, 3)
	p.Bcast("a")
	la := p.Label()
	p.GpsndValue() // consume the buffer (self-delivery comes back via VS)
	p.GprcvValue(LabeledValue{L: la, A: "a"})
	if p.ConfirmEnabled() {
		t.Fatal("confirm enabled before safe")
	}
	p.SafeValue(LabeledValue{L: la, A: "a"})
	if !p.ConfirmEnabled() {
		t.Fatal("confirm not enabled after safe")
	}
	p.Confirm()
	if p.ConfirmEnabled() {
		t.Fatal("confirm re-enabled past order end")
	}
	from, a, ok := p.BrcvEnabled()
	if !ok || from != 0 || a != "a" {
		t.Fatalf("brcv enabled=%t from=%v a=%q", ok, from, string(a))
	}
	p.Brcv()
	if _, _, ok := p.BrcvEnabled(); ok {
		t.Fatal("brcv re-enabled")
	}
	if !p.Quiescent() {
		t.Error("not quiescent after full flow")
	}
}

func TestNonPrimaryIgnoresOrderingAndSafe(t *testing.T) {
	p := newTestProc(0, 5)
	v2 := types.View{ID: gid(2, 0), Set: types.NewProcSet(0, 1)}
	rep := &Summary{Con: map[types.Label]types.Value{}, Next: 1, High: types.G0()}
	runStateExchange(t, p, v2, map[types.ProcID]*Summary{1: rep})

	l := types.Label{ID: v2.ID, Seqno: 1, Origin: 1}
	p.GprcvValue(LabeledValue{L: l, A: "v"})
	if len(p.Order) != 0 {
		t.Error("non-primary appended to order")
	}
	p.SafeValue(LabeledValue{L: l, A: "v"})
	if p.safeLen() != 0 {
		t.Error("non-primary recorded safe label")
	}
	if valueOf(p, l) != "v" {
		t.Error("content must still be recorded")
	}
}

func TestSafeSummaryCompletionMarksExchangeSafe(t *testing.T) {
	p := newTestProc(0, 3)
	lx := types.Label{ID: types.G0(), Seqno: 1, Origin: 1}
	peer := &Summary{
		Con: map[types.Label]types.Value{lx: "x"}, Ord: []types.Label{lx}, Next: 1, High: types.G0(),
	}
	other := &Summary{Con: map[types.Label]types.Value{}, Next: 1, High: types.G0()}
	v2 := types.View{ID: gid(2, 0), Set: types.RangeProcSet(3)}
	runStateExchange(t, p, v2, map[types.ProcID]*Summary{1: peer, 2: other})

	p.SafeSummary(0)
	p.SafeSummary(1)
	if p.safeLen() != 0 {
		t.Fatal("safe labels set before all summaries safe")
	}
	p.SafeSummary(2)
	if !p.Safe(lx) {
		t.Fatal("exchange-safe did not mark recovered labels safe")
	}
	if !p.ConfirmEnabled() {
		t.Fatal("confirm not enabled after exchange safe")
	}
}

func TestSummaryMessageIsSnapshot(t *testing.T) {
	p := newTestProc(0, 3)
	p.Bcast("a")
	la := p.Label()
	x := p.SummaryMessage()
	// Mutating p afterwards must not affect the snapshot.
	p.Bcast("b")
	lb := p.Label()
	p.Order = append(p.Order, lb)
	if con := refCon(x); len(con) != 1 || con[la] != "a" {
		t.Errorf("snapshot con = %v, want only %v", con, la)
	}
	if len(x.Ord) != 0 {
		t.Error("snapshot ord grew")
	}
}

func TestDisabledActionsPanic(t *testing.T) {
	p := newTestProc(0, 3)
	for name, f := range map[string]func(){
		"Label":             func() { p.Label() },
		"GpsndValue":        func() { p.GpsndValue() },
		"CommitSummarySend": func() { p.CommitSummarySend() },
		"GpsndSummary":      func() { p.GpsndSummary() },
		"Confirm":           func() { p.Confirm() },
		"Brcv":              func() { p.Brcv() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s while disabled did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestConfirmedLabels(t *testing.T) {
	p := newTestProc(0, 3)
	p.Bcast("a")
	la := p.Label()
	p.GprcvValue(LabeledValue{L: la, A: "a"})
	p.SafeValue(LabeledValue{L: la, A: "a"})
	if got := p.ConfirmedLabels(); len(got) != 0 {
		t.Fatalf("confirmed before confirm: %v", got)
	}
	p.Confirm()
	if got := p.ConfirmedLabels(); len(got) != 1 || got[0] != la {
		t.Fatalf("confirmed = %v", got)
	}
}

// TestPrimaryAllocatesNothing: Primary is asked on the stack's delivery
// path and at every explorer state; the majority check walks the two
// sorted sets and allocates nothing, in a primary view and out of one.
func TestPrimaryAllocatesNothing(t *testing.T) {
	universe := types.RangeProcSet(5)
	for _, members := range []types.ProcSet{universe, types.NewProcSet(0, 4)} {
		p := NewProc(0, types.Majorities{Universe: universe}, members)
		want := members.Size() == universe.Size()
		if p.Primary() != want {
			t.Fatalf("view %v: Primary() = %t, want %t", members, p.Primary(), want)
		}
		if n := testing.AllocsPerRun(100, func() { _ = p.Primary() }); n != 0 {
			t.Fatalf("view %v: Primary() allocates %.0f times per call", members, n)
		}
	}
}

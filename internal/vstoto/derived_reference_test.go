package vstoto

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ioa"
	"repro/internal/spec/tomachine"
	"repro/internal/spec/vsmachine"
	"repro/internal/types"
)

// refDerived is Section 6's derived variables as maps, computed the way the
// paper states them: allstate one (p, g) pair at a time through the
// machine's lookups, allcontent a map bound by every summary, every
// processor's content and every labeled value in transit, and f(x) with a
// confirmed set and pending and next keyed by processor. It is what derive
// and abstract are checked against.
type refDerived struct {
	allstate   []summaryAt
	allcontent map[types.Label]types.Value
	contentErr error
	perOrigin  map[types.ProcID][]types.Label
	queue      []tomachine.Entry
	pending    map[types.ProcID][]types.Value
	next       map[types.ProcID]int
	absErr     error
}

func refDerive(s *System) *refDerived {
	r := &refDerived{allcontent: map[types.Label]types.Value{}, perOrigin: map[types.ProcID][]types.Label{},
		pending: map[types.ProcID][]types.Value{}, next: map[types.ProcID]int{}}
	procs := s.VS.Procs().Members()
	var gs []types.ViewID
	for _, c := range s.VS.Created {
		gs = append(gs, c.ID)
	}
	for _, p := range procs {
		if id := s.Procs[p].Current.ID; !id.IsBottom() && !slices.Contains(gs, id) {
			gs = append(gs, id)
		}
	}
	slices.SortFunc(gs, types.ViewID.Cmp)
	for _, p := range procs {
		for _, g := range gs {
			if proc := s.Procs[p]; proc.Current.ID == g {
				x := &Summary{Ord: proc.Order, Next: proc.NextConfirm, High: proc.HighPrimary}
				r.allstate = append(r.allstate, summaryAt{x, p, g, proc})
			}
			for _, m := range s.VS.Pending(p, g) {
				if x, ok := m.(*Summary); ok {
					r.allstate = append(r.allstate, summaryAt{X: x, P: p, G: g})
				}
			}
			for _, e := range s.VS.Queue(g) {
				if x, ok := e.M.(*Summary); ok && e.P == p {
					r.allstate = append(r.allstate, summaryAt{X: x, P: p, G: g})
				}
			}
			for _, q := range procs {
				if qp := s.Procs[q]; qp.Current.ID == g {
					if x := qp.GotState.Of(p); x != nil {
						r.allstate = append(r.allstate, summaryAt{X: x, P: p, G: g})
					}
				}
			}
		}
	}
	r.contentErr = r.bindAll(s)
	for l := range r.allcontent {
		r.perOrigin[l.Origin] = append(r.perOrigin[l.Origin], l)
	}
	for _, ls := range r.perOrigin {
		slices.SortFunc(ls, types.Label.Compare)
	}
	allconfirm, confirmErr := allConfirm(r.allstate)
	switch {
	case r.contentErr != nil:
		r.absErr = r.contentErr
	case confirmErr != nil:
		r.absErr = confirmErr
	default:
		r.absErr = r.abstract(s, allconfirm)
	}
	return r
}

// bindAll binds allcontent, returning the first binding to a label bound
// to another value (Lemma 6.5) with the text the dense derivation gives.
func (r *refDerived) bindAll(s *System) error {
	bind := func(l types.Label, a types.Value, where string) error {
		if prev, ok := r.allcontent[l]; !ok {
			r.allcontent[l] = a
		} else if prev != a {
			return fmt.Errorf("lemma 6.5: allcontent not a function: %v ↦ %q and %q (%s)", l, string(prev), string(a), where)
		}
		return nil
	}
	bindContent := func(p *Proc, where string) (err error) {
		p.RangeContent(func(l types.Label, a types.Value) bool {
			err = bind(l, a, where)
			return err == nil
		})
		return err
	}
	var seen []*Summary
	for _, sa := range r.allstate {
		if slices.Contains(seen, sa.X) {
			continue
		}
		seen = append(seen, sa.X)
		if sa.state != nil {
			if err := bindContent(sa.state, sa.String()); err != nil {
				return err
			}
			continue
		}
		for _, run := range sa.X.ContentRuns() {
			for k, a := range run.Vals {
				if err := bind(types.Label{ID: run.ID, Seqno: run.First + k, Origin: run.Origin}, a, sa.String()); err != nil {
					return err
				}
			}
		}
	}
	for _, p := range s.VS.Procs().Members() { // every processor's, in a view or not
		if err := bindContent(s.Procs[p], fmt.Sprintf("content_%v", p)); err != nil {
			return err
		}
	}
	for _, c := range s.VS.Created {
		for _, e := range c.Queue {
			if lv, ok := e.M.(LabeledValue); ok {
				if err := bind(lv.L, lv.A, fmt.Sprintf("queue[%v]", c.ID)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (r *refDerived) abstract(s *System, allconfirm []types.Label) error {
	confirmed := map[types.Label]bool{}
	for _, l := range allconfirm {
		a, ok := r.allcontent[l]
		if !ok {
			return fmt.Errorf("vstoto: confirmed label %v has no content", l)
		}
		r.queue = append(r.queue, tomachine.Entry{A: a, P: l.Origin})
		confirmed[l] = true
	}
	for _, p := range s.VS.Procs().Members() {
		for _, l := range r.perOrigin[p] {
			if !confirmed[l] {
				r.pending[p] = append(r.pending[p], r.allcontent[l])
			}
		}
		r.pending[p] = append(r.pending[p], s.Procs[p].Delay...)
		r.next[p] = s.Procs[p].NextReport
	}
	return nil
}

// compareDerived derives s into d, reused from state to state, and fails
// unless every derived variable and f(x) agree with the map reference.
func compareDerived(s *System, d *derived) error {
	ref := refDerive(s)
	s.derive(d)
	if len(d.allstate) != len(ref.allstate) {
		return fmt.Errorf("allstate has %d summaries, the reference %d", len(d.allstate), len(ref.allstate))
	}
	for i, sa := range d.allstate {
		want := ref.allstate[i]
		same := sa.P == want.P && sa.G == want.G && sa.state == want.state
		if sa.state != nil {
			same = same && slices.Equal(sa.X.Ord, want.X.Ord) && sa.X.Next == want.X.Next && sa.X.High == want.X.High
		} else {
			same = same && sa.X == want.X
		}
		if !same {
			return fmt.Errorf("allstate[%d] = %v, the reference %v", i, sa, want)
		}
	}
	if errText(d.contentErr) != errText(ref.contentErr) {
		return fmt.Errorf("allcontent: %v, the reference %v", d.contentErr, ref.contentErr)
	}
	abs, absErr := s.abstract(d)
	if errText(absErr) != errText(ref.absErr) {
		return fmt.Errorf("f: %v, the reference %v", absErr, ref.absErr)
	}
	if ref.contentErr != nil {
		return nil // allcontent is partial: no check reads it
	}
	if d.content.n != len(ref.allcontent) {
		return fmt.Errorf("allcontent binds %d labels, the reference %d", d.content.n, len(ref.allcontent))
	}
	for l, a := range ref.allcontent {
		if got, ok := d.content.get(l); !ok || got != a {
			return fmt.Errorf("allcontent(%v) = %q, %t; the reference %q", l, got, ok, a)
		}
	}
	for o, ls := range d.perOrigin {
		if !slices.Equal(ls, ref.perOrigin[types.ProcID(o)]) {
			return fmt.Errorf("labels of origin p%d %v, the reference %v", o, ls, ref.perOrigin[types.ProcID(o)])
		}
	}
	if absErr != nil {
		return nil
	}
	if !slices.Equal(abs.Queue, ref.queue) {
		return fmt.Errorf("f(x).queue %v, the reference %v", abs.Queue, ref.queue)
	}
	for _, p := range s.VS.Procs().Members() {
		if !slices.Equal(abs.Pending[p], ref.pending[p]) || abs.Next[p] != ref.next[p] {
			return fmt.Errorf("f(x) at %v: pending %v next %d, the reference %v and %d", p, abs.Pending[p], abs.Next[p], ref.pending[p], ref.next[p])
		}
	}
	return nil
}

// TestDerivedMatchesMapReference checks the dense derivation (allstate by
// one merge walk, allcontent and the confirmed set as label runs, perOrigin
// read off the runs, f(x) indexed by processor) against the map reference:
// after every step of five seeded executions with view churn, at every
// state of a small exploration, and on hand-built states where allcontent
// has a hole or is not a function.
func TestDerivedMatchesMapReference(t *testing.T) {
	views := 0
	for _, c := range []struct {
		seed  int64
		n     int
		churn float64
		steps int
	}{
		{1, 3, 0.05, 600}, {2, 4, 0.08, 500}, {3, 5, 0.10, 400}, {4, 3, 0.15, 600}, {5, 4, 0.12, 500},
	} {
		procs := types.RangeProcSet(c.n)
		qs := types.Majorities{Universe: procs}
		vsAuto := vsmachine.NewAuto(procs, procs)
		components := []ioa.Automaton{vsAuto}
		ps := make([]*Proc, c.n)
		for _, p := range procs.Members() {
			a := NewAuto(p, qs, procs)
			ps[p] = a.P
			components = append(components, a)
		}
		exec := ioa.NewExecutor(c.seed, components...)
		vsAuto.Proposer = vsmachine.RandomViewProposer(vsAuto, exec.Rand(), c.churn)
		bcasts := 0
		exec.SetEnvironment(ioa.EnvironmentFunc(func(rng *rand.Rand) ioa.Action {
			bcasts++
			return tomachine.Bcast{A: types.Value(fmt.Sprintf("v%d", bcasts)), P: types.ProcID(rng.Intn(c.n))}
		}))
		sys, d := NewSystem(vsAuto.M, ps, qs), newDerived()
		exec.OnStep(func(ev ioa.TraceEvent) error {
			if err := compareDerived(sys, d); err != nil {
				return fmt.Errorf("seed %d after %v: %w", c.seed, ev.Act, err)
			}
			return nil
		})
		if err := exec.Run(c.steps); err != nil {
			t.Fatal(err)
		}
		views += len(vsAuto.M.Created)
	}
	if views < 15 {
		t.Errorf("the runs created %d views in all; the churn did not exercise view change", views)
	}

	d := newDerived()
	states := walkExploreEdges(t, exploreViewCfg(), func(_ ExploreConfig, _, succ *exploreState, act ioa.Action) bool {
		if err := compareDerived(succ.system(), d); err != nil {
			t.Fatalf("explore: after %v: %v", act, err)
		}
		return true
	})
	if states != 6010 {
		t.Errorf("walked %d states, want E13's 6010", states)
	}

	// Hand-built: a summary binding only seqno 2 leaves a hole at seqno 1,
	// and a labeled value in transit that contradicts content_p0.
	procs := types.RangeProcSet(2)
	qs := types.Majorities{Universe: procs}
	build := func() *System {
		ps := []*Proc{NewProc(0, qs, procs), NewProc(1, qs, procs)}
		return NewSystem(vsmachine.New(procs, procs), ps, qs)
	}
	l1 := types.Label{ID: types.G0(), Seqno: 1, Origin: 0}
	hole := build()
	hole.VS.ApplyGpsnd(&Summary{Runs: []ContentRun{{ID: l1.ID, Origin: l1.Origin, First: 2, Vals: []types.Value{"b"}}},
		Next: 1, High: types.G0()}, 1)
	clash := build()
	clash.Procs[0].content.set(l1, "a")
	clash.Procs[0].NextSeqno = 2
	clash.VS.ApplyGpsnd(LabeledValue{L: l1, A: "b"}, 0)
	if err := clash.VS.ApplyVSOrder(LabeledValue{L: l1, A: "b"}, 0, types.G0()); err != nil {
		t.Fatal(err)
	}
	for name, sys := range map[string]*System{"hole": hole, "clash": clash} {
		if err := compareDerived(sys, d); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	want := `lemma 6.5: allcontent not a function: ⟨g1.0#1@p0⟩ ↦ "a" and "b" (queue[g1.0])`
	if err := clash.derive(d).contentErr; err == nil || err.Error() != want {
		t.Errorf("clash: %v, want %s", err, want)
	}
	if got := hole.derive(d).perOrigin[0]; len(got) != 1 || got[0].Seqno != 2 {
		t.Errorf("hole: labels of origin p0 %v, want seqno 2 alone", got)
	}
}

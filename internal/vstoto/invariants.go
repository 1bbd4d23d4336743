package vstoto

import (
	"fmt"
	"slices"

	"repro/internal/spec/vsmachine"
	"repro/internal/types"
)

// System is the composed VStoTO-system of Section 6: VS-machine together
// with VStoTO_p for every p, with the derived-variable and invariant
// apparatus used by the safety proof. It is a *view* over live components
// (it holds pointers), so invariants can be checked after every step of a
// randomized execution. Procs is indexed by ProcID: the universe is a
// RangeProcSet.
type System struct {
	VS    *vsmachine.Machine
	Procs []*Proc
	QS    types.QuorumSystem
}

// NewSystem bundles the components.
func NewSystem(vs *vsmachine.Machine, procs []*Proc, qs types.QuorumSystem) *System {
	return &System{VS: vs, Procs: procs, QS: qs}
}

// summaryAt tags a summary with the (p, g) slot it came from, for error
// messages.
type summaryAt struct {
	X *Summary
	P types.ProcID
	G types.ViewID
	// state is the processor whose current state X is (allstate clause 1).
	// Such an X has no Con: its content is the processor's, read in place.
	state *Proc
}

// String names the slot the way the invariant errors do.
func (sa summaryAt) String() string { return fmt.Sprintf("allstate[%v,%v]", sa.P, sa.G) }

// derived holds the Section 6 derived variables of one composed state and
// the storage the checks reading them work in. Each exported check derives
// into a newDerived; a caller checking many states (an explorer worker, a
// simulation checker) refills one, so the next derive overwrites it all.
type derived struct {
	allstate   []summaryAt
	content    labelRuns // allcontent, held as a processor's content is
	contentErr error     // Lemma 6.5 violated: allcontent is partial
	allconfirm []types.Label
	confirmErr error           // Corollary 6.24 violated: allconfirm is nil
	gs         []types.ViewID  // the view ids allstate is enumerated over
	own        []Summary       // allstate clause (1): at most one per processor
	distinct   []*Summary      // the summaries allContent has visited
	perOrigin  [][]types.Label // allcontent's labels by origin, in label order
	seen       []int           // indexed by origin
	abs        AbstractState
	confirmed  labelRuns     // allconfirm's labels, for abs.Pending
	vals       []types.Value // backing array of abs.Pending
}

func newDerived() *derived { return new(derived) }

// derive computes the derived variables into d and returns it. allstate =
// ∪_{p,g} allstate[p,g] is enumerated over the view ids that can have
// nonempty slots (created views and procs' current views), in ascending
// order so that every derivation of a state reports the same violation.
// allstate[p, g] is, tagged with its slot, every summary that is (1) the
// state of p if p's current view is g, (2) in pending[p,g] of VS-machine,
// (3) in queue[g] with sender p, or (4) recorded as gotstate(p)_q for some
// q currently in view g. The (p, g) pairs are walked in order beside
// VS-machine's slots and created views, which are sorted the same way.
func (s *System) derive(d *derived) *derived {
	procs, created := s.VS.Procs().Members(), s.VS.Created
	gs := d.gs[:0]
	for _, c := range created {
		gs = append(gs, c.ID)
	}
	for _, p := range procs {
		if id := s.Procs[p].Current.ID; !id.IsBottom() && !slices.Contains(gs, id) {
			gs = append(gs, id)
		}
	}
	slices.SortFunc(gs, types.ViewID.Cmp)
	// Reserving a slot per processor keeps the pointers into own stable.
	d.gs, d.own, d.allstate = gs, slices.Grow(d.own[:0], len(procs)), d.allstate[:0]
	slot := 0
	for _, p := range procs {
		c := 0
		for _, g := range gs {
			if proc := s.Procs[p]; proc.Current.ID == g {
				d.own = append(d.own, Summary{Ord: proc.Order, Next: proc.NextConfirm, High: proc.HighPrimary})
				d.allstate = append(d.allstate, summaryAt{&d.own[len(d.own)-1], p, g, proc})
			}
			for ; slot < s.VS.NumSlots(); slot++ {
				q, h, pending := s.VS.SlotAt(slot)
				if q > p || q == p && g.Less(h) {
					break
				}
				for _, m := range pending {
					if x, ok := m.(*Summary); ok && h == g && q == p {
						d.allstate = append(d.allstate, summaryAt{X: x, P: p, G: g})
					}
				}
			}
			if c < len(created) && created[c].ID == g { // gs holds every created id
				for _, e := range created[c].Queue {
					if x, ok := e.M.(*Summary); ok && e.P == p {
						d.allstate = append(d.allstate, summaryAt{X: x, P: p, G: g})
					}
				}
				c++
			}
			for _, q := range procs {
				if qp := s.Procs[q]; qp.Current.ID == g {
					if x := qp.GotState.Of(p); x != nil {
						d.allstate = append(d.allstate, summaryAt{X: x, P: p, G: g})
					}
				}
			}
		}
	}
	d.contentErr = s.allContent(d)
	d.byOrigin(len(s.Procs))
	d.allconfirm, d.confirmErr = allConfirm(d.allstate)
	return d
}

// reset unbinds every label of c, keeping its runs and their arrays for
// the next bindings: what a derivation binds from is dense runs of the
// same few (view, origin) pairs, state after state. (The runs are every
// pair the derivations since newDerived have bound.)
func (c *labelRuns) reset() {
	for i := range c.runs {
		c.runs[i].vals, c.runs[i].missing, c.runs[i].holes = c.runs[i].vals[:0], nil, 0
	}
	c.n = 0
}

// allContent computes the derived variable allcontent: the union of x.con
// over all summaries in allstate (each visited once: a repeat can bind
// nothing new), the content of every processor in no view (the others'
// is their allstate clause (1)) and the labeled values in transit. It
// returns an error at the first binding that shows the union is not a
// function (Lemma 6.5).
func (s *System) allContent(d *derived) error {
	c := &d.content
	c.reset()
	// bind adds l ↦ a, or reports the different value l is already bound
	// to. Where a binding came from is formatted only for that report.
	bind := func(l types.Label, a types.Value, where func() string) error {
		if prev, ok := c.get(l); !ok {
			c.setIn(nil, l, a)
		} else if prev != a {
			return fmt.Errorf("lemma 6.5: allcontent not a function: %v ↦ %q and %q (%s)",
				l, string(prev), string(a), where())
		}
		return nil
	}
	// bindContent binds content_p's pairs, returning the first clash.
	bindContent := func(p *Proc, where func() string) (err error) {
		p.RangeContent(func(l types.Label, a types.Value) bool {
			err = bind(l, a, where)
			return err == nil
		})
		return err
	}
	d.distinct = d.distinct[:0]
	for _, sa := range d.allstate {
		if slices.Contains(d.distinct, sa.X) {
			continue
		}
		d.distinct = append(d.distinct, sa.X)
		if sa.state != nil {
			if err := bindContent(sa.state, sa.String); err != nil {
				return err
			}
			continue
		}
		for _, r := range sa.X.ContentRuns() {
			for k, a := range r.Vals {
				if err := bind(types.Label{ID: r.ID, Seqno: r.First + k, Origin: r.Origin}, a, sa.String); err != nil {
					return err
				}
			}
		}
	}
	// Content held locally and labeled values in VS transit also carry
	// label→value bindings; include them so the function check is global.
	for _, p := range s.VS.Procs().Members() {
		if s.Procs[p].Current.ID.IsBottom() {
			if err := bindContent(s.Procs[p], func() string { return fmt.Sprintf("content_%v", p) }); err != nil {
				return err
			}
		}
	}
	for _, cv := range s.VS.Created {
		for _, e := range cv.Queue {
			if lv, ok := e.M.(LabeledValue); ok {
				if err := bind(lv.L, lv.A, func() string { return fmt.Sprintf("queue[%v]", cv.ID) }); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// isPrefix reports whether a is a prefix of b.
func isPrefix(a, b []types.Label) bool {
	if len(a) > len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// AllConfirm computes the derived variable allconfirm: the least upper
// bound of x.confirm over allstate. It returns an error if the confirm
// sequences are not pairwise prefix-comparable (violating Corollary 6.24).
func (s *System) AllConfirm() ([]types.Label, error) {
	return allConfirm(s.derive(newDerived()).allstate)
}

func allConfirm(allstate []summaryAt) ([]types.Label, error) {
	var lub []types.Label
	var lubAt summaryAt
	for _, sa := range allstate {
		c := sa.X.Confirm()
		switch {
		case isPrefix(c, lub):
			// lub already covers c.
		case isPrefix(lub, c):
			lub, lubAt = c, sa
		default:
			return nil, fmt.Errorf(
				"corollary 6.24: confirm sequences inconsistent: %v (from %v) vs %v (from %v)",
				lub, lubAt, c, sa)
		}
	}
	return lub, nil
}

// CheckInvariants verifies the executable subset of the Section 6
// invariants on the current composed state. Each check is labeled with the
// lemma it corresponds to.
func (s *System) CheckInvariants() error { return s.checkInvariants(s.derive(newDerived())) }

func (s *System) checkInvariants(d *derived) error {
	procs := s.VS.Procs().Members()

	// Lemma 6.1: agreement between processor-local current and VS state.
	for _, p := range procs {
		proc := s.Procs[p]
		vsCur := s.VS.CurrentViewID[p]
		if proc.Current.ID.IsBottom() != vsCur.IsBottom() {
			return fmt.Errorf("lemma 6.1(1): current_%v=%v but current-viewid[%v]=%v",
				p, proc.Current.ID, p, vsCur)
		}
		if !proc.Current.ID.IsBottom() {
			if proc.Current.ID != vsCur {
				return fmt.Errorf("lemma 6.1(2): current_%v=%v ≠ current-viewid[%v]=%v",
					p, proc.Current.ID, p, vsCur)
			}
			created, ok := s.VS.View(proc.Current.ID)
			if !ok || !created.Set.Equal(proc.Current.Set) {
				return fmt.Errorf("lemma 6.1(3): current_%v=%v not in created", p, proc.Current)
			}
		}
	}

	// Lemma 6.2: undefined view forces normal status.
	for _, p := range procs {
		proc := s.Procs[p]
		if proc.Current.ID.IsBottom() && proc.Status != StatusNormal {
			return fmt.Errorf("lemma 6.2: current_%v=⊥ but status=%v", p, proc.Status)
		}
	}

	// Lemma 6.3(1): buffer labels carry the current view id and origin p.
	for _, p := range procs {
		proc := s.Procs[p]
		for _, l := range proc.Buffer {
			if proc.Current.ID.IsBottom() || l.Origin != p || l.ID != proc.Current.ID {
				return fmt.Errorf("lemma 6.3(1): buffer_%v holds %v with current=%v", p, l, proc.Current.ID)
			}
			// Lemma 6.6: buffered labels have content.
			if _, ok := proc.ValueOf(l); !ok {
				return fmt.Errorf("lemma 6.6: buffer_%v holds %v without content", p, l)
			}
		}
	}
	// Lemma 6.3(2,3): labeled values in VS pending/queues carry matching
	// view id and sender.
	for _, c := range s.VS.Created {
		for _, e := range c.Queue {
			if lv, ok := e.M.(LabeledValue); ok {
				if lv.L.Origin != e.P || lv.L.ID != c.ID {
					return fmt.Errorf("lemma 6.3(3): queue[%v] holds %v from %v", c.ID, lv, e.P)
				}
			}
		}
	}

	if d.contentErr != nil { // Lemma 6.5
		return d.contentErr
	}

	// Lemma 6.4: labels in allcontent with origin p are below p's next
	// label.
	for o, ls := range d.perOrigin {
		proc := s.Procs[o]
		bound := types.Label{ID: proc.Current.ID, Seqno: proc.NextSeqno, Origin: types.ProcID(o)}
		if n := len(ls); n > 0 && !proc.Current.ID.IsBottom() && !ls[n-1].Less(bound) {
			return fmt.Errorf("lemma 6.4: label %v not below %v", ls[n-1], bound)
		}
	}

	// Lemma 6.7(4): no allstate for views above a processor's current view.
	for _, sa := range d.allstate {
		proc := s.Procs[sa.P]
		if proc.Current.ID.IsBottom() || proc.Current.ID.Less(sa.G) {
			return fmt.Errorf("lemma 6.7(4): allstate[%v,%v] nonempty with current=%v",
				sa.P, sa.G, proc.Current.ID)
		}
		// Lemma 6.12: x.high ≤ g ≤ current.id_p.
		if sa.G.Less(sa.X.High) {
			return fmt.Errorf("lemma 6.12(1): allstate[%v,%v] has high=%v > %v",
				sa.P, sa.G, sa.X.High, sa.G)
		}
		// Lemma 6.22(2): x.next ≤ length(x.ord) + 1.
		if sa.X.Next > len(sa.X.Ord)+1 {
			return fmt.Errorf("lemma 6.22(2): allstate[%v,%v] has next=%d > len(ord)+1=%d",
				sa.P, sa.G, sa.X.Next, len(sa.X.Ord)+1)
		}
	}

	// Lemma 6.10 / 6.11: established vs status and highprimary bounds.
	for _, p := range procs {
		proc := s.Procs[p]
		if !proc.TrackHistory {
			continue
		}
		for _, g := range proc.Established {
			if proc.Current.ID.Less(g) {
				return fmt.Errorf("lemma 6.10(1): established[%v,%v] but current=%v", p, g, proc.Current.ID)
			}
		}
		if !proc.Current.ID.IsBottom() {
			est := proc.IsEstablished(proc.Current.ID)
			wantEst := proc.Status == StatusNormal
			if est != wantEst {
				return fmt.Errorf("lemma 6.10(2): established[%v,%v]=%t but status=%v",
					p, proc.Current.ID, est, proc.Status)
			}
			switch {
			case est && proc.Primary():
				if proc.HighPrimary != proc.Current.ID {
					return fmt.Errorf("lemma 6.11(1): established primary %v at %v but highprimary=%v",
						proc.Current.ID, p, proc.HighPrimary)
				}
			case est && !proc.Primary():
				// The paper's statement implicitly assumes the initial view
				// ⟨g0, P0⟩ is primary; when P0 holds no quorum the initial
				// state has highprimary = g0 = current.id, so g0 is exempt.
				if !proc.HighPrimary.Less(proc.Current.ID) && proc.Current.ID != types.G0() {
					return fmt.Errorf("lemma 6.11(2): established non-primary %v at %v but highprimary=%v",
						proc.Current.ID, p, proc.HighPrimary)
				}
			default: // not established
				if !proc.HighPrimary.Less(proc.Current.ID) {
					return fmt.Errorf("lemma 6.11(3): unestablished %v at %v but highprimary=%v",
						proc.Current.ID, p, proc.HighPrimary)
				}
			}
		}
		// Lemma 6.11(4): gotstate summaries have high below the view.
		for _, e := range proc.GotState {
			if !proc.Current.ID.IsBottom() && !e.X.High.Less(proc.Current.ID) {
				return fmt.Errorf("lemma 6.11(4): gotstate(%v)_%v has high=%v ≥ current=%v",
					e.Q, p, e.X.High, proc.Current.ID)
			}
		}
	}

	// Corollary 6.23 / 6.24: confirm sequences are prefixes of higher
	// orders and pairwise consistent.
	for _, a := range d.allstate {
		for _, b := range d.allstate {
			if a.X.High.LessEq(b.X.High) {
				if !isPrefix(a.X.Confirm(), b.X.Ord) {
					return fmt.Errorf(
						"corollary 6.23: confirm of allstate[%v,%v] (high %v) not a prefix of ord of allstate[%v,%v] (high %v)",
						a.P, a.G, a.X.High, b.P, b.G, b.X.High)
				}
			}
		}
	}
	if d.confirmErr != nil {
		return d.confirmErr
	}

	// Per-proc sanity: nextreport ≤ nextconfirm ≤ len(order)+1.
	for _, p := range procs {
		proc := s.Procs[p]
		if proc.NextReport > proc.NextConfirm {
			return fmt.Errorf("vstoto: nextreport_%v=%d > nextconfirm=%d", p, proc.NextReport, proc.NextConfirm)
		}
		if proc.NextConfirm > len(proc.Order)+1 {
			return fmt.Errorf("vstoto: nextconfirm_%v=%d > len(order)+1=%d", p, proc.NextConfirm, len(proc.Order)+1)
		}
	}
	return nil
}

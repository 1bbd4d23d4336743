package vstoto

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ioa"
	"repro/internal/spec/tomachine"
	"repro/internal/spec/vsmachine"
	"repro/internal/types"
)

// refProc is a processor's gotstate, SafeExch, established and buildorder
// kept in maps, as Figure 9 declares them, and updated by each input as
// Figure 10 says: the reference the sorted slices of Proc are checked
// against.
type refProc struct {
	got         map[types.ProcID]*Summary
	exch        map[types.ProcID]bool
	established map[types.ViewID]bool
	buildOrder  map[types.ViewID][]types.Label
}

func newRefProc(p *Proc) *refProc {
	r := &refProc{got: map[types.ProcID]*Summary{}, exch: map[types.ProcID]bool{},
		established: map[types.ViewID]bool{}, buildOrder: map[types.ViewID][]types.Label{}}
	if !p.Current.ID.IsBottom() {
		r.established[p.Current.ID] = true
	}
	return r
}

// apply updates the reference for act, which took the processor from a
// state whose status was pre to p.
func (r *refProc) apply(act ioa.Action, pre Status, p *Proc) {
	switch t := act.(type) {
	case vsmachine.Newview:
		r.got, r.exch = map[types.ProcID]*Summary{}, map[types.ProcID]bool{}
	case vsmachine.Gprcv:
		switch m := t.M.(type) {
		case LabeledValue:
			if p.Primary() {
				r.buildOrder[p.Current.ID] = slices.Clone(p.Order)
			}
		case *Summary:
			r.got[t.P] = m
			dom := len(r.got) == p.Current.Set.Size()
			for q := range r.got {
				dom = dom && p.Current.Set.Contains(q)
			}
			if pre == StatusCollect && dom {
				r.established[p.Current.ID] = true
				r.buildOrder[p.Current.ID] = slices.Clone(p.Order)
			}
		}
	case vsmachine.Safe:
		if _, ok := t.M.(*Summary); ok {
			r.exch[t.P] = true
		}
	}
}

// maxPrimary, reps, chosenRep, shortOrder, fullOrder and maxNextConfirm are
// Figure 9's derived functions of gotstate, read from the map.
func (r *refProc) maxPrimary() types.ViewID {
	max := types.Bottom
	for _, x := range r.got {
		if max.Less(x.High) {
			max = x.High
		}
	}
	return max
}

func (r *refProc) reps() []types.ProcID {
	max := r.maxPrimary()
	var reps []types.ProcID
	for q, x := range r.got {
		if x.High == max {
			reps = append(reps, q)
		}
	}
	slices.Sort(reps)
	return reps
}

func (r *refProc) chosenRep() types.ProcID { reps := r.reps(); return reps[len(reps)-1] }

func (r *refProc) shortOrder() []types.Label { return r.got[r.chosenRep()].Ord }

func (r *refProc) fullOrder() []types.Label {
	short := r.shortOrder()
	known := map[types.Label]bool{}
	for _, x := range r.got {
		for l := range refCon(x) {
			known[l] = true
		}
	}
	var rest []types.Label
	for l := range known {
		if !slices.Contains(short, l) {
			rest = append(rest, l)
		}
	}
	slices.SortFunc(rest, types.Label.Compare)
	return append(slices.Clone(short), rest...)
}

func (r *refProc) maxNextConfirm() int {
	max := 1
	for _, x := range r.got {
		if x.Next > max {
			max = x.Next
		}
	}
	return max
}

// fingerprint is Proc.AppendFingerprint with gotstate and SafeExch read
// from the maps (content and safe-labels are TestLabelStateMatchesMaps').
func (r *refProc) fingerprint(p *Proc) []byte {
	var buf []byte
	buf = binary.AppendVarint(buf, int64(p.id))
	buf = p.Current.AppendFingerprint(buf)
	buf = binary.AppendVarint(buf, int64(p.NextSeqno))
	buf = binary.AppendVarint(buf, int64(p.Status))
	buf = binary.AppendVarint(buf, int64(p.NextConfirm))
	buf = binary.AppendVarint(buf, int64(p.NextReport))
	buf = p.HighPrimary.AppendFingerprint(buf)
	for _, ls := range [][]types.Label{p.Buffer, p.Order} {
		buf = binary.AppendUvarint(buf, uint64(len(ls)))
		for _, l := range ls {
			buf = l.AppendFingerprint(buf)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(p.Delay)))
	for _, a := range p.Delay {
		buf = types.AppendFingerprintString(buf, string(a))
	}
	buf = p.appendContentFingerprint(buf)
	gots := sortedKeys(nil, r.got, cmp.Compare[types.ProcID], nil)
	buf = binary.AppendUvarint(buf, uint64(len(gots)))
	for _, q := range gots {
		buf = binary.AppendVarint(buf, int64(q))
		buf = r.got[q].AppendFingerprint(buf)
	}
	exs := sortedKeys(nil, r.exch, cmp.Compare[types.ProcID], func(ok bool) bool { return ok })
	buf = binary.AppendUvarint(buf, uint64(len(exs)))
	for _, q := range exs {
		buf = binary.AppendVarint(buf, int64(q))
	}
	return p.appendSafeFingerprint(buf)
}

// compare reports the first query on which p and the reference disagree.
func (r *refProc) compare(p *Proc) error {
	gots := sortedKeys(nil, r.got, cmp.Compare[types.ProcID], nil)
	if len(p.GotState) != len(gots) {
		return fmt.Errorf("gotstate has %d entries, reference %v", len(p.GotState), gots)
	}
	for i, q := range gots {
		e := p.GotState[i]
		if e.Q != q || p.GotState.Of(q) != e.X {
			return fmt.Errorf("gotstate entry %d is %v's, reference %v's", i, e.Q, q)
		}
		if got, want := e.X.String(), refString(r.got[q]); got != want {
			return fmt.Errorf("gotstate(%v) is %s, reference %s", q, got, want)
		}
	}
	if x := p.GotState.Of(types.ProcID(99)); x != nil {
		return fmt.Errorf("gotstate(p99) = %v", x)
	}
	if exs := sortedKeys(nil, r.exch, cmp.Compare[types.ProcID], nil); !slices.Equal(p.SafeExch, exs) {
		return fmt.Errorf("SafeExch %v, reference %v", p.SafeExch, exs)
	}
	if ests := sortedKeys(nil, r.established, types.ViewID.Cmp, nil); !slices.Equal(p.Established, ests) {
		return fmt.Errorf("established %v, reference %v", p.Established, ests)
	}
	if p.IsEstablished(p.Current.ID) != r.established[p.Current.ID] {
		return fmt.Errorf("IsEstablished(%v) = %t, reference %t", p.Current.ID, p.IsEstablished(p.Current.ID), r.established[p.Current.ID])
	}
	gs := sortedKeys(nil, r.buildOrder, types.ViewID.Cmp, nil)
	if len(p.BuildOrder) != len(gs) {
		return fmt.Errorf("buildorder has %d entries, reference %v", len(p.BuildOrder), gs)
	}
	for i, g := range gs {
		if e := p.BuildOrder[i]; e.G != g || !slices.Equal(e.Ord, r.buildOrder[g]) || !slices.Equal(p.BuildOrderOf(g), e.Ord) {
			return fmt.Errorf("buildorder entry %d is %v ↦ %v, reference %v ↦ %v", i, e.G, e.Ord, g, r.buildOrder[g])
		}
	}
	if bo := p.BuildOrderOf(types.ViewID{Epoch: 1 << 40}); bo != nil {
		return fmt.Errorf("buildorder of a view never held = %v", bo)
	}
	if len(gots) > 0 {
		y := p.GotState
		if got, want := y.Reps(), r.reps(); !slices.Equal(got, want) {
			return fmt.Errorf("Reps %v, reference %v", got, want)
		}
		if got, want := y.ChosenRep(), r.chosenRep(); got != want {
			return fmt.Errorf("ChosenRep %v, reference %v", got, want)
		}
		if got, want := y.MaxPrimary(), r.maxPrimary(); got != want {
			return fmt.Errorf("MaxPrimary %v, reference %v", got, want)
		}
		if got, want := y.ShortOrder(), r.shortOrder(); !slices.Equal(got, want) {
			return fmt.Errorf("ShortOrder %v, reference %v", got, want)
		}
		if got, want := y.FullOrder(), r.fullOrder(); !slices.Equal(got, want) {
			return fmt.Errorf("FullOrder %v, reference %v", got, want)
		}
		if got, want := y.MaxNextConfirm(), r.maxNextConfirm(); got != want {
			return fmt.Errorf("MaxNextConfirm %d, reference %d", got, want)
		}
	}
	if !bytes.Equal(p.AppendFingerprint(nil), r.fingerprint(p)) {
		return fmt.Errorf("AppendFingerprint differs from the map encoding")
	}
	return nil
}

// procImage renders everything of p that an action on a copy of it must
// leave alone.
func procImage(p *Proc) string {
	return fmt.Sprintf("%x %v %v", p.AppendFingerprint(nil), p.Established, p.BuildOrder)
}

// refAuto is a processor's automaton that applies each action to a copy
// made for it (cloneFor, as the explorer does), requires the processor it
// copied to be left as it was, and updates the reference beside it.
type refAuto struct {
	*Auto
	t     *testing.T
	procs []*Proc // the System's processors, indexed by ProcID
	ref   *refProc
	seen  map[string]int
}

func (a *refAuto) Input(act ioa.Action)   { a.step(act, (*Auto).Input) }
func (a *refAuto) Perform(act ioa.Action) { a.step(act, (*Auto).Perform) }

func (a *refAuto) step(act ioa.Action, do func(*Auto, ioa.Action)) {
	parent := a.P
	before := procImage(parent)
	a.note(act, parent)
	pre := parent.Status
	a.P = parent.cloneFor(actOf(act), nil)
	a.procs[a.P.id] = a.P
	do(a.Auto, act)
	if after := procImage(parent); after != before {
		a.t.Fatalf("%v wrote to the processor it was copied from:\n%s\nwas\n%s", act, after, before)
	}
	a.ref.apply(act, pre, a.P)
}

// note counts the inputs that insert below the largest member held, which
// an append in place of a sorted insert would get wrong.
func (a *refAuto) note(act ioa.Action, p *Proc) {
	switch t := act.(type) {
	case vsmachine.Gprcv:
		if _, ok := t.M.(*Summary); ok && len(p.GotState) > 0 && t.P < p.GotState[len(p.GotState)-1].Q {
			a.seen["summary before a member's"]++
		}
	case vsmachine.Safe:
		if _, ok := t.M.(*Summary); ok && len(p.SafeExch) > 0 && t.P < p.SafeExch[len(p.SafeExch)-1] {
			a.seen["safe summary before a member's"]++
		}
	}
}

// TestProcMatchesMapReference drives VStoTO-system through seeded random
// executions with view churn, each processor beside a map-based reference
// of its gotstate, SafeExch, established and buildorder. Every action is
// applied to a copy of the processor made for it, and the processor copied
// must not change. After every step each processor's entries, Reps,
// ChosenRep, ShortOrder, FullOrder, MaxNextConfirm, IsEstablished,
// BuildOrderOf and fingerprint bytes must equal what the reference gives.
func TestProcMatchesMapReference(t *testing.T) {
	seen := map[string]int{}
	for _, c := range []struct {
		seed  int64
		n, p0 int
		churn float64
		steps int
	}{
		{1, 3, 3, 0.05, 500},
		{2, 4, 3, 0.08, 500},
		{3, 5, 5, 0.10, 400},
		{4, 4, 1, 0.08, 400},
		{5, 3, 2, 0.15, 500},
	} {
		t.Run(fmt.Sprintf("seed%d_n%d", c.seed, c.n), func(t *testing.T) {
			checkProcReference(t, c.seed, c.n, c.p0, c.churn, c.steps, seen)
		})
	}
	for _, what := range []string{"established", "buildorder of two views", "gotstate of three", "safe exchange complete",
		"summary before a member's", "safe summary before a member's"} {
		if seen[what] == 0 {
			t.Errorf("no run reached %q", what)
		}
	}
	t.Logf("reached: %v", seen)
}

func checkProcReference(t *testing.T, seed int64, n, p0Size int, churn float64, steps int, seen map[string]int) {
	procs := types.RangeProcSet(n)
	p0 := types.NewProcSet(procs.Members()[:p0Size]...)
	qs := types.Majorities{Universe: procs}
	vsAuto := vsmachine.NewAuto(procs, p0)
	components := []ioa.Automaton{vsAuto}
	ps := make([]*Proc, n)
	autos := make([]*refAuto, n)
	for _, p := range procs.Members() {
		a := &refAuto{Auto: NewAuto(p, qs, p0), t: t, procs: ps, seen: seen}
		a.ref = newRefProc(a.P)
		ps[p], autos[p] = a.P, a
		components = append(components, a)
	}
	exec := ioa.NewExecutor(seed, components...)
	vsAuto.Proposer = vsmachine.RandomViewProposer(vsAuto, exec.Rand(), churn)
	var bcasts int
	exec.SetEnvironment(ioa.EnvironmentFunc(func(rng *rand.Rand) ioa.Action {
		bcasts++
		return tomachine.Bcast{A: types.Value(fmt.Sprintf("v%d", bcasts)), P: types.ProcID(rng.Intn(n))}
	}))
	exec.OnStep(func(ev ioa.TraceEvent) error {
		for _, a := range autos {
			if err := a.ref.compare(a.P); err != nil {
				return fmt.Errorf("%v after %v: %w", a.P.id, ev.Act, err)
			}
			if len(a.P.Established) > 1 {
				seen["established"]++
			}
			if len(a.P.BuildOrder) > 1 {
				seen["buildorder of two views"]++
			}
			if len(a.P.GotState) > 2 {
				seen["gotstate of three"]++
			}
			if a.P.exchSafe {
				seen["safe exchange complete"]++
			}
		}
		return nil
	})
	if err := exec.Run(steps); err != nil {
		t.Fatal(err)
	}
}

package vstoto

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/types"
)

// The state exchange as it was built on maps: the reference the run-based
// exchange is compared with, byte for byte.

// refCon returns x's content as a map, read run by run.
func refCon(x *Summary) map[types.Label]types.Value {
	if x.Con != nil {
		return x.Con
	}
	con := map[types.Label]types.Value{}
	for _, r := range x.Runs {
		for k, a := range r.Vals {
			con[types.Label{ID: r.ID, Seqno: r.First + k, Origin: r.Origin}] = a
		}
	}
	return con
}

// refKnownContent is knowncontent(Y) = ∪_{q ∈ dom(Y)} Y(q).con.
func refKnownContent(y GotState) map[types.Label]types.Value {
	out := make(map[types.Label]types.Value)
	for _, e := range y {
		for l, a := range refCon(e.X) {
			out[l] = a
		}
	}
	return out
}

// refFullOrder is fullorder(Y): shortorder(Y), then the rest of
// knowncontent(Y)'s labels in label order.
func refFullOrder(y GotState) []types.Label {
	short := y.ShortOrder()
	inShort := make(map[types.Label]bool, len(short))
	for _, l := range short {
		inShort[l] = true
	}
	var rest []types.Label
	for l := range refKnownContent(y) {
		if !inShort[l] {
			rest = append(rest, l)
		}
	}
	types.SortLabels(rest)
	return append(slices.Clone(short), rest...)
}

// refString is Summary.String over the map.
func refString(x *Summary) string {
	con := refCon(x)
	labels := sortedKeys(nil, con, types.Label.Compare, nil)
	var b strings.Builder
	b.WriteString("summary{con={")
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%v=%q", l, string(con[l]))
	}
	b.WriteString("} ord=[")
	for i, l := range x.Ord {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(l.String())
	}
	fmt.Fprintf(&b, "] next=%d high=%v}", x.Next, x.High)
	return b.String()
}

// refFingerprint is Summary.AppendFingerprint over the map.
func refFingerprint(x *Summary) []byte {
	con := refCon(x)
	buf := []byte{0x11}
	labels := sortedKeys(nil, con, types.Label.Compare, nil)
	buf = binary.AppendUvarint(buf, uint64(len(labels)))
	for _, l := range labels {
		buf = l.AppendFingerprint(buf)
		buf = types.AppendFingerprintString(buf, string(con[l]))
	}
	buf = binary.AppendUvarint(buf, uint64(len(x.Ord)))
	for _, l := range x.Ord {
		buf = l.AppendFingerprint(buf)
	}
	buf = binary.AppendVarint(buf, int64(x.Next))
	return x.High.AppendFingerprint(buf)
}

// exchangeGen draws random views and summaries over one global
// label→value function (Lemma 6.5): dense prefixes, as processors hold
// them, and holey hand-built contents, in both the literal and the run
// form.
type exchangeGen struct {
	rng   *rand.Rand
	n     int
	views []types.ViewID
	truth func(types.Label) types.Value
}

func newExchangeGen(seed int64) *exchangeGen {
	g := &exchangeGen{rng: rand.New(rand.NewSource(seed)), n: 3 + int(seed%3)}
	for e := int64(1); e <= 1+g.rng.Int63n(3); e++ {
		g.views = append(g.views, types.ViewID{Epoch: e, Proc: types.ProcID(g.rng.Intn(g.n))})
	}
	g.truth = func(l types.Label) types.Value {
		return types.Value(fmt.Sprintf("v%d.%d.%d.%d", l.ID.Epoch, l.ID.Proc, l.Seqno, l.Origin))
	}
	return g
}

// content draws a content relation: per (view, origin), nothing, a dense
// prefix or a random set of seqnos.
func (g *exchangeGen) content(views []types.ViewID) map[types.Label]types.Value {
	con := map[types.Label]types.Value{}
	for _, id := range views {
		for o := 0; o < g.n; o++ {
			k := g.rng.Intn(12)
			switch g.rng.Intn(4) {
			case 0:
			case 1: // holey
				for s := 1; s <= k+70*g.rng.Intn(2); s++ {
					if g.rng.Intn(3) == 0 {
						l := types.Label{ID: id, Seqno: s, Origin: types.ProcID(o)}
						con[l] = g.truth(l)
					}
				}
			default: // dense
				for s := 1; s <= k; s++ {
					l := types.Label{ID: id, Seqno: s, Origin: types.ProcID(o)}
					con[l] = g.truth(l)
				}
			}
		}
	}
	return con
}

// summary draws a summary over views: its content, an order of some of
// its labels (and now and then one it lacks), next and high.
func (g *exchangeGen) summary(views []types.ViewID) *Summary {
	con := g.content(views)
	var ord []types.Label
	for _, l := range sortedKeys(nil, con, types.Label.Compare, nil) {
		if g.rng.Intn(3) > 0 {
			ord = append(ord, l)
		}
	}
	g.rng.Shuffle(len(ord), func(i, j int) { ord[i], ord[j] = ord[j], ord[i] })
	if g.rng.Intn(5) == 0 {
		ord = append(ord, types.Label{ID: views[0], Seqno: 99, Origin: 0})
	}
	x := &Summary{Con: con, Ord: ord, Next: 1 + g.rng.Intn(len(ord)+1), High: views[g.rng.Intn(len(views))]}
	if g.rng.Intn(2) == 0 { // the run form, as SummaryMessage builds it
		x = &Summary{Runs: RunsOf(con), Ord: x.Ord, Next: x.Next, High: x.High}
	}
	return x
}

// checkSummary compares x's renderings with the map code's.
func checkSummary(x *Summary) error {
	if got, want := x.String(), refString(x); got != want {
		return fmt.Errorf("String:\n got %s\nwant %s", got, want)
	}
	if got, want := x.AppendFingerprint(nil), refFingerprint(x); !bytes.Equal(got, want) {
		return fmt.Errorf("AppendFingerprint of %v differs from the map encoding", x)
	}
	return nil
}

// checkContent compares content_p with the map.
func checkContent(p *Proc, want map[types.Label]types.Value) error {
	var got []types.Label
	p.RangeContent(func(l types.Label, a types.Value) bool {
		if want[l] != a {
			got = nil
			return false
		}
		got = append(got, l)
		return true
	})
	if keys := sortedKeys(nil, want, types.Label.Compare, nil); !slices.Equal(got, keys) || p.ContentLen() != len(keys) {
		return fmt.Errorf("content %v (%d), want %v", got, p.ContentLen(), keys)
	}
	return nil
}

// TestExchangeMatchesMaps runs random state exchanges through Proc and
// the map code: every summary's String and fingerprint, content_p after
// each merge, gotstate's summaries, the union, shortorder, fullorder, the
// order and highprimary at establishment and the safe counts after the
// exchange turns safe must agree, byte for byte.
func TestExchangeMatchesMaps(t *testing.T) {
	established, primary, holey := 0, 0, 0
	for seed := int64(1); seed <= 400; seed++ {
		g := newExchangeGen(seed)
		universe := types.RangeProcSet(g.n)
		qs := types.Majorities{Universe: universe}
		members := []types.ProcID{0}
		for q := 1; q < g.n; q++ {
			if g.rng.Intn(4) > 0 {
				members = append(members, types.ProcID(q))
			}
		}
		cur := types.ViewID{Epoch: int64(len(g.views)) + 1, Proc: 0}
		p := NewProc(0, qs, universe)
		start := g.content(g.views)
		for l := range start {
			if l.Seqno > 12 { // only a long holey run reaches past 12
				holey++
				break
			}
		}
		p.MergeContent(RunsOf(start))
		ref := maps.Clone(start)
		if err := checkContent(p, ref); err != nil {
			t.Fatalf("seed %d: restore: %v", seed, err)
		}
		p.Newview(types.View{ID: cur, Set: types.NewProcSet(members...)})
		own := p.GpsndSummary()
		if err := checkSummary(own); err != nil {
			t.Fatalf("seed %d: own summary: %v", seed, err)
		}
		if got := refCon(own); !maps.Equal(got, ref) {
			t.Fatalf("seed %d: own summary holds %v, content %v", seed, got, ref)
		}
		refY := GotState{}
		for i, q := range members {
			x := own
			if q != p.id {
				// Some summaries hold current-view labels, as a sender that
				// labeled during recovery would.
				x = g.summary(append(slices.Clone(g.views), cur))
			}
			if err := checkSummary(x); err != nil {
				t.Fatalf("seed %d: summary of %v: %v", seed, q, err)
			}
			refY = refY.with(q, x)
			if i == len(members)-1 {
				break // the last summary establishes: see below
			}
			p.GprcvSummary(q, x)
			for l, a := range refCon(x) {
				if _, ok := ref[l]; !ok {
					ref[l] = a
				}
			}
			if err := checkContent(p, ref); err != nil {
				t.Fatalf("seed %d: after the summary of %v: %v", seed, q, err)
			}
		}
		last := members[len(members)-1]
		wantFull, wantShort := refFullOrder(refY), refY.ShortOrder()
		wantHigh := refY.MaxPrimary()
		p.GprcvSummary(last, refY.Of(last))
		for l, a := range refCon(refY.Of(last)) {
			if _, ok := ref[l]; !ok {
				ref[l] = a
			}
		}
		if err := checkContent(p, ref); err != nil {
			t.Fatalf("seed %d: after the last summary: %v", seed, err)
		}
		for _, e := range p.GotState {
			if got, want := e.X.String(), refString(refY.Of(e.Q)); got != want {
				t.Fatalf("seed %d: gotstate(%v) is\n%s\nnot\n%s", seed, e.Q, got, want)
			}
			if err := checkSummary(e.X); err != nil {
				t.Fatalf("seed %d: gotstate(%v): %v", seed, e.Q, err)
			}
		}
		u := p.GotState.union()
		kc := refKnownContent(refY)
		var ul []types.Label
		u.walk(func(i, j int) bool {
			if l := u.runs[i].label(j); kc[l] == u.runs[i].vals[j] {
				ul = append(ul, l)
			}
			return true
		})
		if want := sortedKeys(nil, kc, types.Label.Compare, nil); !slices.Equal(ul, want) || u.n != len(want) {
			t.Fatalf("seed %d: union %v (n %d), want %v", seed, ul, u.n, want)
		}
		if got := p.GotState.ShortOrder(); !slices.Equal(got, wantShort) {
			t.Fatalf("seed %d: shortorder %v, want %v", seed, got, wantShort)
		}
		if got := p.GotState.FullOrder(); !slices.Equal(got, wantFull) {
			t.Fatalf("seed %d: fullorder\n got %v\nwant %v", seed, got, wantFull)
		}
		if p.Status != StatusNormal {
			t.Fatalf("seed %d: not established", seed)
		}
		established++
		if p.Primary() {
			primary++
			if !slices.Equal(p.Order, wantFull) || p.HighPrimary != cur {
				t.Fatalf("seed %d: primary establishment: order %v high %v", seed, p.Order, p.HighPrimary)
			}
		} else if !slices.Equal(p.Order, wantShort) || p.HighPrimary != wantHigh {
			t.Fatalf("seed %d: establishment: order %v high %v", seed, p.Order, p.HighPrimary)
		}
		if err := checkContent(p, ref); err != nil {
			t.Fatalf("seed %d: fullorder changed content: %v", seed, err)
		}
		for _, q := range members {
			p.SafeSummary(q)
		}
		wantSafe := map[types.ProcID]int{}
		if p.Primary() {
			for _, l := range wantFull {
				if l.ID == cur {
					wantSafe[l.Origin] = max(wantSafe[l.Origin], l.Seqno)
				}
			}
		}
		gotSafe := map[types.ProcID]int{}
		for _, oc := range p.safe {
			gotSafe[oc.origin] = oc.n
		}
		if !maps.Equal(gotSafe, wantSafe) || p.exchSafe != p.Primary() {
			t.Fatalf("seed %d: safe counts %v exch %t, want %v", seed, gotSafe, p.exchSafe, wantSafe)
		}
		if err := checkContent(p, ref); err != nil {
			t.Fatalf("seed %d: safe summary changed content: %v", seed, err)
		}
	}
	if primary == 0 || primary == established || holey == 0 {
		t.Fatalf("vacuous: %d establishments, %d primary, %d holey restores", established, primary, holey)
	}
	t.Logf("%d establishments, %d primary, %d holey restores", established, primary, holey)
}

// TestGotStateSharesContent: after a merge, gotstate(q)'s runs are
// stretches of content_p itself, capacity clipped, so holding them costs
// no second copy of the values, and an append to one cannot write over
// the labels content_p binds past it.
func TestGotStateSharesContent(t *testing.T) {
	procs := types.RangeProcSet(3)
	p := NewProc(0, types.Majorities{Universe: procs}, procs)
	for _, a := range []types.Value{"a", "b", "c", "d", "e"} {
		p.Bcast(a)
		p.Label()
	}
	g0 := types.G0()
	p.Newview(types.View{ID: types.ViewID{Epoch: 2}, Set: procs})
	p.GpsndSummary()
	x := &Summary{Runs: []ContentRun{{ID: g0, Origin: 0, First: 1, Vals: []types.Value{"a", "b", "c"}}}, Next: 1, High: g0}
	p.GprcvSummary(1, x)
	got := p.GotState.Of(1)
	if got == x || len(got.Runs) != 1 {
		t.Fatalf("gotstate(1) = %v", got)
	}
	r := got.Runs[0]
	if &r.Vals[0] != &p.content.runs[0].vals[0] {
		t.Fatal("gotstate(1) holds a copy of content_p's values")
	}
	if cap(r.Vals) != len(r.Vals) {
		t.Fatalf("gotstate(1)'s run has capacity %d past its %d values", cap(r.Vals), len(r.Vals))
	}
	_ = append(r.Vals, "x")
	if a, _ := p.ValueOf(types.Label{ID: g0, Seqno: 4, Origin: 0}); a != "d" {
		t.Fatalf("an append to gotstate(1)'s run wrote %q over content_p", a)
	}
	if s := got.String(); s != refString(x) {
		t.Fatalf("gotstate(1) renders %s, sent %s", s, refString(x))
	}
}

// TestGotStateSharesOrder: gotstate(q)'s order is read from an equal
// order p holds already (its own, or a member's in gotstate), capacity
// clipped; an order p holds nowhere stays the one received.
func TestGotStateSharesOrder(t *testing.T) {
	procs := types.RangeProcSet(3)
	p := NewProc(0, types.Majorities{Universe: procs}, procs)
	g0 := types.G0()
	for s := 1; s <= 3; s++ {
		p.GprcvValue(LabeledValue{L: types.Label{ID: g0, Seqno: s, Origin: 1}, A: "v"})
	}
	p.Newview(types.View{ID: types.ViewID{Epoch: 2}, Set: procs})
	p.GpsndSummary()
	x := &Summary{Ord: slices.Clone(p.Order[:2]), Next: 1, High: g0}
	p.GprcvSummary(1, x)
	if got := p.GotState.Of(1).Ord; &got[0] != &p.Order[0] || len(got) != 2 || cap(got) != 2 {
		t.Fatalf("gotstate(1)'s order is not the clipped prefix of p's order: len %d cap %d", len(got), cap(got))
	}
	other := []types.Label{{ID: g0, Seqno: 1, Origin: 2}}
	p.GprcvSummary(2, &Summary{Ord: other, Next: 1, High: g0})
	if got := p.GotState.Of(2).Ord; &got[0] != &other[0] {
		t.Fatal("an order p holds nowhere was replaced")
	}
}

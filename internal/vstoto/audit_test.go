package vstoto

// Tests for the state-exchange hot-path fix (order prefixes shared via
// capacity-clipped slices instead of eager copies), the N⁺-convention audit
// of Summary.Confirm and GotState.MaxNextConfirm, and permutation/fingerprint
// properties of the GotState aggregate functions.

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/types"
)

// primaryWithOrder returns a 3-processor primary-view proc that has
// delivered n labeled values (Order and Content of length n).
func primaryWithOrder(t testing.TB, n int) *Proc {
	p := newTestProc(0, 3)
	for i := 1; i <= n; i++ {
		p.GprcvValue(LabeledValue{L: lbl(0, i, 1), A: types.Value(fmt.Sprintf("v%d", i))})
	}
	if len(p.Order) != n {
		t.Fatalf("setup: order length %d, want %d", len(p.Order), n)
	}
	return p
}

// TestSummaryImmutable pins the aliasing safety of the shared-prefix
// SummaryMessage: the snapshot's Ord must not change when the sender's
// Order grows afterwards (the capacity clip forces the append to
// reallocate).
func TestSummaryImmutable(t *testing.T) {
	p := primaryWithOrder(t, 10)
	p.Status = StatusSend
	x := p.GpsndSummary()
	want := append([]types.Label(nil), x.Ord...)
	p.Status = StatusNormal
	for i := 11; i <= 30; i++ {
		p.GprcvValue(LabeledValue{L: lbl(0, i, 1), A: "late"})
	}
	if len(x.Ord) != 10 || !reflect.DeepEqual(x.Ord, want) {
		t.Fatalf("summary Ord mutated by later appends:\n got %v\nwant %v", x.Ord, want)
	}
}

// TestBuildOrderImmutable is the same property for the buildorder history
// variable: a reference taken at one point must still read the same labels
// after the order grows.
func TestBuildOrderImmutable(t *testing.T) {
	p := primaryWithOrder(t, 5)
	g := p.Current.ID
	held := p.BuildOrderOf(g)
	want := append([]types.Label(nil), held...)
	for i := 6; i <= 20; i++ {
		p.GprcvValue(LabeledValue{L: lbl(0, i, 1), A: "late"})
	}
	if !reflect.DeepEqual(held, want) {
		t.Fatalf("held buildorder slice mutated:\n got %v\nwant %v", held, want)
	}
	if got := len(p.BuildOrderOf(g)); got != 20 {
		t.Fatalf("current buildorder length %d, want 20", got)
	}
}

// TestEstablishedOrderImmuneToSummaryAlias: after establishment the
// non-primary branch aliases the chosen representative's summary Ord; a
// later primary-view append at the receiver must not write through into
// that summary.
func TestEstablishedOrderImmuneToSummaryAlias(t *testing.T) {
	procs := types.RangeProcSet(3)
	p := NewProc(0, types.Majorities{Universe: procs}, procs)
	// Non-primary view {0}: establishment takes the short order.
	v := types.View{ID: gid(5, 0), Set: types.NewProcSet(0)}
	p.Newview(v)
	p.GpsndSummary()
	// Summary slice with spare capacity, as a hostile sender might produce.
	ord := make([]types.Label, 2, 8)
	ord[0], ord[1] = lbl(1, 1, 1), lbl(1, 2, 1)
	rep := &Summary{
		Con:  map[types.Label]types.Value{ord[0]: "a", ord[1]: "b"},
		Ord:  ord,
		Next: 1,
		High: types.G0(),
	}
	p.GprcvSummary(0, rep)
	if p.Status != StatusNormal {
		t.Fatal("setup: establishment did not complete")
	}
	// Grow the order (simulate what a primary-view delivery does).
	p.Current = types.View{ID: gid(6, 0), Set: procs} // quorum ⇒ primary
	p.GprcvValue(LabeledValue{L: lbl(6, 1, 2), A: "x"})
	if len(rep.Ord) != 2 || rep.Ord[0] != ord[0] || rep.Ord[1] != ord[1] {
		t.Fatalf("received summary mutated: %v", rep.Ord)
	}
	if cap(ord) > 2 && ord[:3][2] == (types.Label{ID: gid(6, 0), Seqno: 1, Origin: 2}) {
		t.Fatal("append wrote into the summary's spare capacity")
	}
}

// TestConfirmBoundaries audits Summary.Confirm's min(next−1, len(ord))
// clamp against the paper's N⁺ convention: nextconfirm lives in N⁺ (so 1
// means "nothing confirmed"), next−1 may legitimately exceed len(ord) after
// establishment (maxnextconfirm can come from a longer peer order), and a
// zero Next is outside the convention but must still clamp, not panic.
func TestConfirmBoundaries(t *testing.T) {
	ls := []types.Label{lbl(1, 1, 0), lbl(1, 2, 0), lbl(1, 3, 0)}
	cases := []struct {
		name string
		ord  []types.Label
		next int
		want int
	}{
		{"next-0-out-of-convention", ls, 0, 0},
		{"next-1-nothing-confirmed", ls, 1, 0},
		{"next-len", ls, 3, 2},
		{"next-len-plus-1-all-confirmed", ls, 4, 3},
		{"next-beyond-ord-clamped", ls, 5, 3},
		{"empty-ord-next-1", nil, 1, 0},
		{"empty-ord-next-0", nil, 0, 0},
		{"empty-ord-next-beyond", nil, 7, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			x := &Summary{Ord: c.ord, Next: c.next}
			got := x.Confirm()
			if len(got) != c.want {
				t.Fatalf("confirm length %d, want %d", len(got), c.want)
			}
			for i, l := range got {
				if l != c.ord[i] {
					t.Fatalf("confirm[%d] = %v, want prefix of ord", i, l)
				}
			}
		})
	}
}

// TestMaxNextConfirmBoundaries audits the initial value 1: nextconfirm ∈ N⁺
// everywhere in Figure 9 (NewProc starts it at 1, Confirm only increments),
// so 1 — not 0 — is the identity of the max; an empty GotState must yield
// it, and a summary carrying a sub-convention Next must never pull the max
// below it.
func TestMaxNextConfirmBoundaries(t *testing.T) {
	if got := (GotState{}).MaxNextConfirm(); got != 1 {
		t.Fatalf("empty gotstate: maxnextconfirm = %d, want 1 (N⁺ floor)", got)
	}
	y := GotState{}.with(0, &Summary{Next: 1}).with(1, &Summary{Next: 1})
	if got := y.MaxNextConfirm(); got != 1 {
		t.Fatalf("all-1 gotstate: maxnextconfirm = %d, want 1", got)
	}
	y = y.with(2, &Summary{Next: 0}) // out of convention; must not lower the max
	if got := y.MaxNextConfirm(); got != 1 {
		t.Fatalf("gotstate with Next=0: maxnextconfirm = %d, want 1", got)
	}
	y = y.with(3, &Summary{Next: 5})
	if got := y.MaxNextConfirm(); got != 5 {
		t.Fatalf("maxnextconfirm = %d, want 5", got)
	}
}

// mkGotState builds a GotState over n members with deterministic summary
// contents, inserting entries in the given order.
func mkGotState(order []types.ProcID) GotState {
	var y GotState
	for _, q := range order {
		ls := []types.Label{lbl(int64(q)+1, 1, q), lbl(int64(q)+1, 2, q)}
		y = y.with(q, &Summary{
			Con:  map[types.Label]types.Value{ls[0]: "a", ls[1]: "b"},
			Ord:  ls,
			Next: int(q) + 1,
			High: types.ViewID{Epoch: int64(q % 2), Proc: q},
		})
	}
	return y
}

// TestGotStateAggregatesPermutationInvariant: FullOrder, ShortOrder,
// ChosenRep and MaxNextConfirm are specified on the *set* Y, so they must
// not depend on map insertion order (which perturbs Go's map iteration
// order) nor vary between repeated evaluations of the same map.
func TestGotStateAggregatesPermutationInvariant(t *testing.T) {
	base := []types.ProcID{0, 1, 2, 3, 4}
	ref := mkGotState(base)
	wantRep := ref.ChosenRep()
	wantFull := append([]types.Label(nil), ref.FullOrder()...)
	wantShort := append([]types.Label(nil), ref.ShortOrder()...)
	wantNext := ref.MaxNextConfirm()
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		perm := append([]types.ProcID(nil), base...)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		y := mkGotState(perm)
		if got := y.ChosenRep(); got != wantRep {
			t.Fatalf("perm %v: chosenrep = %v, want %v", perm, got, wantRep)
		}
		if got := y.FullOrder(); !reflect.DeepEqual(got, wantFull) {
			t.Fatalf("perm %v: fullorder = %v, want %v", perm, got, wantFull)
		}
		if got := y.ShortOrder(); !reflect.DeepEqual(got, wantShort) {
			t.Fatalf("perm %v: shortorder = %v, want %v", perm, got, wantShort)
		}
		if got := y.MaxNextConfirm(); got != wantNext {
			t.Fatalf("perm %v: maxnextconfirm = %d, want %d", perm, got, wantNext)
		}
		// Repeated evaluation over the same map must also agree.
		if again := y.FullOrder(); !reflect.DeepEqual(again, wantFull) {
			t.Fatalf("perm %v: fullorder unstable across evaluations", perm)
		}
	}
}

// TestSummaryStringNoCollisions: the explorer fingerprints states via
// Summary.String(), so structurally unequal summaries must render
// differently (and structurally equal ones identically, regardless of Con
// insertion order).
func TestSummaryStringNoCollisions(t *testing.T) {
	la, lb := lbl(1, 1, 0), lbl(1, 2, 1)
	distinct := []*Summary{
		{Con: map[types.Label]types.Value{}, Next: 1},
		{Con: map[types.Label]types.Value{la: "a"}, Next: 1},
		{Con: map[types.Label]types.Value{la: "b"}, Next: 1},          // same label, different value
		{Con: map[types.Label]types.Value{lb: "a"}, Next: 1},          // different label, same value
		{Con: map[types.Label]types.Value{la: "a", lb: "b"}, Next: 1}, // two entries
		{Con: map[types.Label]types.Value{la: "a"}, Ord: []types.Label{la}, Next: 1},
		{Con: map[types.Label]types.Value{la: "a"}, Ord: []types.Label{la, lb}, Next: 1},
		{Con: map[types.Label]types.Value{la: "a"}, Ord: []types.Label{lb, la}, Next: 1}, // order matters
		{Con: map[types.Label]types.Value{la: "a"}, Ord: []types.Label{la}, Next: 2},
		{Con: map[types.Label]types.Value{la: "a"}, Ord: []types.Label{la}, Next: 1, High: types.G0()},
		{Con: map[types.Label]types.Value{la: "a"}, Ord: []types.Label{la}, Next: 1, High: gid(2, 1)},
	}
	seen := make(map[string]int)
	for i, x := range distinct {
		s := x.String()
		if j, dup := seen[s]; dup {
			t.Fatalf("summaries %d and %d collide on %q", j, i, s)
		}
		seen[s] = i
	}
	// Structurally equal summaries render identically whatever the map's
	// insertion history.
	c1 := map[types.Label]types.Value{la: "a", lb: "b"}
	c2 := map[types.Label]types.Value{lb: "b"}
	c2[la] = "a"
	x1 := &Summary{Con: c1, Ord: []types.Label{la}, Next: 2, High: types.G0()}
	x2 := &Summary{Con: c2, Ord: []types.Label{la}, Next: 2, High: types.G0()}
	for trial := 0; trial < 20; trial++ {
		if x1.String() != x2.String() {
			t.Fatalf("structurally equal summaries render differently:\n%s\n%s", x1, x2)
		}
	}
}

// BenchmarkRecordOrderHistory pins the asymptotic fix in recordOrder: with
// the shared-prefix representation, delivering N values into a primary view
// with history tracking is O(N); the old per-delivery copy made it O(N²).
// Compare ns/op across sizes — it should grow ~4× per 4× size, not ~16×.
func BenchmarkRecordOrderHistory(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				p := newTestProc(0, 3) // TrackHistory on
				b.StartTimer()
				for k := 1; k <= n; k++ {
					p.GprcvValue(LabeledValue{L: lbl(0, k, 1), A: "v"})
				}
			}
		})
	}
}

// BenchmarkSummaryMessage pins the O(1)-in-|Order| summary construction:
// Ord is shared, so ns/op must stay flat as the order grows (Con is kept
// small to isolate the order term).
func BenchmarkSummaryMessage(b *testing.B) {
	for _, n := range []int{1024, 16384, 65536} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p := newTestProc(0, 3)
			p.TrackHistory = false
			ord := make([]types.Label, n)
			for i := range ord {
				ord[i] = lbl(0, i+1, 1)
			}
			p.Order = ord
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if x := p.SummaryMessage(); len(x.Ord) != n {
					b.Fatal("bad summary")
				}
			}
		})
	}
}

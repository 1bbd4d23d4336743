// Package vstoto implements the paper's VStoTO algorithm (Section 5,
// Figures 8–10): one automaton per processor that, running over a
// view-synchronous group communication service VS, implements the totally
// ordered broadcast service TO.
//
// In the normal case a processor labels each client value with a
// system-wide unique label ⟨viewid, seqno, origin⟩, multicasts the
// ⟨label, value⟩ pair through VS, appends labels to its tentative order
// while in a primary view, confirms them once VS reports them safe, and
// releases confirmed values to the client. When VS announces a new view,
// recovery runs: members exchange state summaries, determine the
// representative with the highest established primary, and rebuild a common
// order (extending it with all known labels when the new view is primary).
//
// The package also carries the Section 6 proof apparatus in executable
// form: history variables (established, buildorder), derived variables
// (allstate, allcontent, allconfirm), the invariants of Lemmas 6.1–6.24,
// and the forward simulation relation f to TO-machine.
package vstoto

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/types"
)

// LabeledValue is an ordinary VStoTO message: a ⟨label, value⟩ pair. It is
// a comparable struct, so message occurrences match by value across the VS
// layer.
type LabeledValue struct {
	L types.Label
	A types.Value
}

// String renders the pair.
func (lv LabeledValue) String() string { return fmt.Sprintf("⟨%v,%q⟩", lv.L, string(lv.A)) }

// Summary is a state-exchange message: the summaries type of Figure 8,
// P(L×A) × L* × N⁺ × G⊥ with selectors con, ord, next, high. Summaries are
// sent by pointer (comparable by identity) and are immutable once sent.
type Summary struct {
	// Con is the sender's content relation in its literal form: a partial
	// function from labels to data values (Lemma 6.5 shows it is a function
	// system-wide). Only hand-built summaries set it; when it is non-nil it
	// is the content and Runs is ignored.
	Con map[types.Label]types.Value
	// Runs is the content as runs (DESIGN.md §5), what SummaryMessage and
	// the codec build. Read the content with ContentRuns, which covers
	// both forms.
	Runs []ContentRun
	// Ord is the sender's tentative order of labels.
	Ord []types.Label
	// Next is the sender's nextconfirm value.
	Next int
	// High is the sender's highprimary: the highest established primary
	// view identifier that has affected its order.
	High types.ViewID
}

// ContentRun is a stretch of consecutive labels of one (view, origin)
// pair and their values: Vals[i] is the value of ⟨ID, First+i, Origin⟩,
// and Vals is never empty. A summary's runs are sorted by (view, origin,
// First), and two runs of one pair neither overlap nor touch. A dense
// content (seqnos 1..k per pair, which is what a processor's content is)
// is one run per pair.
type ContentRun struct {
	ID     types.ViewID
	Origin types.ProcID
	First  int
	Vals   []types.Value
}

// ContentRuns returns x.con as runs: Runs, or the runs of Con when Con is
// set. The second builds and sorts; only hand-built summaries take it.
func (x *Summary) ContentRuns() []ContentRun {
	if x.Con == nil {
		return x.Runs
	}
	return RunsOf(x.Con)
}

// RunsOf returns the pairs of con as runs, sorted, each as long as the
// consecutive seqnos allow.
func RunsOf(con map[types.Label]types.Value) []ContentRun {
	labels := make([]types.Label, 0, len(con))
	for l := range con {
		labels = append(labels, l)
	}
	slices.SortFunc(labels, func(a, b types.Label) int {
		if c := a.ID.Cmp(b.ID); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Origin, b.Origin); c != 0 {
			return c
		}
		return cmp.Compare(a.Seqno, b.Seqno)
	})
	// The runs share one array of values, each clipped to its stretch.
	vals := make([]types.Value, len(labels))
	var runs []ContentRun
	for i, l := range labels {
		vals[i] = con[l]
		if n := len(runs); n > 0 {
			if r := &runs[n-1]; r.ID == l.ID && r.Origin == l.Origin && r.First+len(r.Vals) == l.Seqno {
				r.Vals = vals[i-len(r.Vals) : i+1 : i+1]
				continue
			}
		}
		runs = append(runs, ContentRun{ID: l.ID, Origin: l.Origin, First: l.Seqno, Vals: vals[i : i+1 : i+1]})
	}
	return runs
}

// walkRuns calls fn with every pair of runs (sorted as a summary's are) in
// label order: view, then seqno, then origin. Like labelRuns.walk it steps
// through each view's seqnos and, at each, through the view's runs, which
// are in origin order.
func walkRuns(runs []ContentRun, fn func(types.Label, types.Value)) {
	for lo := 0; lo < len(runs); {
		hi, first, last := lo, math.MaxInt, math.MinInt
		for ; hi < len(runs) && runs[hi].ID == runs[lo].ID; hi++ {
			first, last = min(first, runs[hi].First), max(last, runs[hi].First+len(runs[hi].Vals)-1)
		}
		for s := first; s <= last; s++ {
			for i := lo; i < hi; i++ {
				if r := &runs[i]; r.First <= s && s < r.First+len(r.Vals) {
					fn(types.Label{ID: r.ID, Seqno: s, Origin: r.Origin}, r.Vals[s-r.First])
				}
			}
		}
		lo = hi
	}
}

// Confirm returns x.confirm: the prefix of x.ord of length
// min(x.next−1, length(x.ord)).
func (x *Summary) Confirm() []types.Label {
	n := x.Next - 1
	if n > len(x.Ord) {
		n = len(x.Ord)
	}
	if n < 0 {
		n = 0
	}
	return x.Ord[:n]
}

// String renders the summary canonically: the full con relation in label
// order, then ord, next and high. Canonicality matters — the bounded
// exhaustive explorer fingerprints states via %v, so structurally equal
// summaries must render identically and unequal ones must not collide.
func (x *Summary) String() string {
	var b strings.Builder
	b.WriteString("summary{con={")
	first := true
	walkRuns(x.ContentRuns(), func(l types.Label, a types.Value) {
		if !first {
			b.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&b, "%v=%q", l, string(a))
	})
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

// GotState is the partial function Y from processor ids to summaries
// accumulated during state exchange (the gotstate variable), as entries
// sorted by member. The automaton never writes one in place — with
// returns a new one — so clones share it.
type GotState []GotEntry

// GotEntry is one pair of gotstate: Y(Q) = X.
type GotEntry struct {
	Q types.ProcID
	X *Summary
}

// find returns the index of q's entry, or where it would be inserted.
func (y GotState) find(q types.ProcID) (int, bool) {
	for i, e := range y {
		if e.Q >= q {
			return i, e.Q == q
		}
	}
	return len(y), false
}

// Of returns Y(q), nil when q ∉ dom(Y).
func (y GotState) Of(q types.ProcID) *Summary {
	if i, ok := y.find(q); ok {
		return y[i].X
	}
	return nil
}

// withIn returns Y with Y(q) = x, in a new slice from fx.
func (y GotState) withIn(fx *procEffects, q types.ProcID, x *Summary) GotState {
	i, ok := y.find(q)
	return cowSet(fx.gotEntries(), y, i, ok, GotEntry{Q: q, X: x})
}

// cowSet returns a copy of the sorted slice s with e at index i: in place
// of s[i] when replace, inserted before it otherwise. Proc's sorted slices
// are changed only through it, so a slice a clone shares is never written,
// and the copy's capacity is its length, so an append to it reallocates
// as well. The copy comes from r (see procEffects).
func cowSet[E any](r *region[E], s []E, i int, replace bool, e E) []E {
	n, rest := len(s)+1, i
	if replace {
		n, rest = len(s), i+1
	}
	out := allocIn(r, n)
	copy(out, s[:i])
	out[i] = e
	copy(out[i+1:], s[rest:])
	return out
}

// union returns knowncontent(Y) = ∪_{q ∈ dom(Y)} Y(q).con as runs. It
// shares the summaries' values where a run covers what the union holds so
// far, so a union of dense contents copies no value.
func (y GotState) union() labelRuns {
	var u labelRuns
	for _, e := range y {
		u.mergeAll(nil, e.X.ContentRuns(), true)
	}
	return u
}

// MaxPrimary returns maxprimary(Y) = max_{q ∈ dom(Y)} Y(q).high.
func (y GotState) MaxPrimary() types.ViewID {
	max := types.Bottom
	for _, e := range y {
		if max.Less(e.X.High) {
			max = e.X.High
		}
	}
	return max
}

// Reps returns reps(Y): the members whose summaries carry the maximal
// highprimary, in ascending processor order.
func (y GotState) Reps() []types.ProcID {
	max := y.MaxPrimary()
	var reps []types.ProcID
	for _, e := range y {
		if e.X.High == max {
			reps = append(reps, e.Q)
		}
	}
	return reps
}

// chosen returns the index of chosenrep(Y)'s entry: the last of reps(Y).
func (y GotState) chosen() int {
	if len(y) == 0 {
		panic("vstoto: ChosenRep of empty gotstate")
	}
	max, i := y.MaxPrimary(), len(y)-1
	for y[i].X.High != max {
		i--
	}
	return i
}

// ChosenRep returns chosenrep(Y). Any deterministic choice works as long as
// all processors choose identically from identical information; we take the
// representative with the highest processor id, as the paper suggests.
func (y GotState) ChosenRep() types.ProcID { return y[y.chosen()].Q }

// ShortOrder returns shortorder(Y) = Y(chosenrep(Y)).ord.
func (y GotState) ShortOrder() []types.Label { return y[y.chosen()].X.Ord }

// FullOrder returns fullorder(Y): shortorder(Y) followed by the remaining
// labels of dom(knowncontent(Y)) in ascending label order.
func (y GotState) FullOrder() []types.Label { return y.fullOrder(nil) }

// fullOrder is FullOrder in an array from fx.
func (y GotState) fullOrder(fx *procEffects) []types.Label {
	short, u := y.ShortOrder(), y.union()
	extras := u.appendExtras(nil, short)
	out := allocIn(fx.labels(), len(short)+len(extras))
	copy(out[copy(out, short):], extras)
	return out
}

// MaxNextConfirm returns maxnextconfirm(Y) = max_{q ∈ dom(Y)} Y(q).next.
func (y GotState) MaxNextConfirm() int {
	max := 1
	for _, e := range y {
		if e.X.Next > max {
			max = e.X.Next
		}
	}
	return max
}

// domainEquals reports whether dom(Y) equals the given membership set.
func (y GotState) domainEquals(s types.ProcSet) bool {
	if len(y) != s.Size() {
		return false
	}
	for i, q := range s.Members() {
		if y[i].Q != q {
			return false
		}
	}
	return true
}

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
	"fmt"
	"sort"
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
	// Con is the sender's content relation: a partial function from labels
	// to data values (Lemma 6.5 shows it is a function system-wide).
	Con map[types.Label]types.Value
	// Ord is the sender's tentative order of labels.
	Ord []types.Label
	// Next is the sender's nextconfirm value.
	Next int
	// High is the sender's highprimary: the highest established primary
	// view identifier that has affected its order.
	High types.ViewID
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
	labels := make([]types.Label, 0, len(x.Con))
	for l := range x.Con {
		labels = append(labels, l)
	}
	types.SortLabels(labels)
	var b strings.Builder
	b.WriteString("summary{con={")
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%v=%q", l, string(x.Con[l]))
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

// GotState is the partial function Y from processor ids to summaries
// accumulated during state exchange (the gotstate variable).
type GotState map[types.ProcID]*Summary

// KnownContent returns knowncontent(Y) = ∪_{q ∈ dom(Y)} Y(q).con as a fresh
// map.
func (y GotState) KnownContent() map[types.Label]types.Value {
	out := make(map[types.Label]types.Value)
	for _, x := range y {
		for l, a := range x.Con {
			out[l] = a
		}
	}
	return out
}

// known reports whether l is in dom(knowncontent(Y)).
func (y GotState) known(l types.Label) bool {
	for _, x := range y {
		if _, ok := x.Con[l]; ok {
			return true
		}
	}
	return false
}

// MaxPrimary returns maxprimary(Y) = max_{q ∈ dom(Y)} Y(q).high.
func (y GotState) MaxPrimary() types.ViewID {
	max := types.Bottom
	for _, x := range y {
		if max.Less(x.High) {
			max = x.High
		}
	}
	return max
}

// Reps returns reps(Y): the members whose summaries carry the maximal
// highprimary, in ascending processor order.
func (y GotState) Reps() []types.ProcID {
	max := y.MaxPrimary()
	var reps []types.ProcID
	for q, x := range y {
		if x.High == max {
			reps = append(reps, q)
		}
	}
	sort.Slice(reps, func(i, j int) bool { return reps[i] < reps[j] })
	return reps
}

// ChosenRep returns chosenrep(Y). Any deterministic choice works as long as
// all processors choose identically from identical information; we take the
// representative with the highest processor id, as the paper suggests.
func (y GotState) ChosenRep() types.ProcID {
	reps := y.Reps()
	if len(reps) == 0 {
		panic("vstoto: ChosenRep of empty gotstate")
	}
	return reps[len(reps)-1]
}

// ShortOrder returns shortorder(Y) = Y(chosenrep(Y)).ord.
func (y GotState) ShortOrder() []types.Label {
	return y[y.ChosenRep()].Ord
}

// FullOrder returns fullorder(Y): shortorder(Y) followed by the remaining
// labels of dom(knowncontent(Y)) in ascending label order.
func (y GotState) FullOrder() []types.Label {
	short := y.ShortOrder()
	inShort := make(map[types.Label]bool, len(short))
	for _, l := range short {
		inShort[l] = true
	}
	var rest []types.Label
	for l := range y.KnownContent() {
		if !inShort[l] {
			rest = append(rest, l)
		}
	}
	types.SortLabels(rest)
	out := make([]types.Label, 0, len(short)+len(rest))
	out = append(out, short...)
	return append(out, rest...)
}

// MaxNextConfirm returns maxnextconfirm(Y) = max_{q ∈ dom(Y)} Y(q).next.
func (y GotState) MaxNextConfirm() int {
	max := 1
	for _, x := range y {
		if x.Next > max {
			max = x.Next
		}
	}
	return max
}

// domainEquals reports whether dom(Y) equals the given membership set.
func (y GotState) domainEquals(s types.ProcSet) bool {
	if len(y) != s.Size() {
		return false
	}
	for q := range y {
		if !s.Contains(q) {
			return false
		}
	}
	return true
}

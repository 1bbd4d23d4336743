// Package types defines the ground vocabulary shared by every layer of the
// reproduction: processor identifiers (the paper's set P), view identifiers
// (the totally ordered set G with initial element g0), views, data values
// (the paper's set A), and the lexicographically ordered labels L used by the
// VStoTO algorithm.
//
// The paper fixes P as a totally ordered finite set and G as a totally
// ordered set of view identifiers with a distinguished minimum g0. Here a
// view identifier is an ⟨epoch, proc⟩ pair ordered lexicographically; this
// matches the Section 8 implementation note that viewids have "a procid as
// low-order part (and a stable sequence number as high-order part)", which
// makes fresh identifiers both unique and larger than any identifier
// previously seen.
package types

import (
	"cmp"
	"fmt"
	"sort"
	"strings"
)

// ProcID identifies a processor; the set P of the paper. ProcIDs are totally
// ordered by their integer value.
type ProcID int

// String returns a short human-readable form such as "p3".
func (p ProcID) String() string { return fmt.Sprintf("p%d", int(p)) }

// ViewID is an element of the totally ordered set G of view identifiers.
// The zero value is reserved as the paper's ⊥ (undefined view identifier):
// it is less than every defined identifier, and IsBottom reports it.
// Real identifiers order first by Epoch, then by Proc.
type ViewID struct {
	// Epoch is the high-order component; fresh views pick an epoch larger
	// than any epoch previously observed. The initial view g0 has epoch 1.
	Epoch int64
	// Proc is the low-order tie-breaker, the identifier of the processor
	// that created the view (0 for the distinguished initial view).
	Proc ProcID
}

// Bottom is the paper's ⊥: the undefined view identifier, smaller than all
// defined identifiers.
var Bottom = ViewID{}

// G0 returns the distinguished initial view identifier g0, the minimum of G.
func G0() ViewID { return ViewID{Epoch: 1, Proc: 0} }

// IsBottom reports whether v is the undefined identifier ⊥.
func (v ViewID) IsBottom() bool { return v == ViewID{} }

// Less reports whether v < w in the total order on G extended with ⊥ as the
// minimum element.
func (v ViewID) Less(w ViewID) bool {
	if v.Epoch != w.Epoch {
		return v.Epoch < w.Epoch
	}
	return v.Proc < w.Proc
}

// LessEq reports v ≤ w.
func (v ViewID) LessEq(w ViewID) bool { return v == w || v.Less(w) }

// Cmp returns -1, 0, or +1 according to the order on G⊥.
func (v ViewID) Cmp(w ViewID) int {
	switch {
	case v == w:
		return 0
	case v.Less(w):
		return -1
	default:
		return 1
	}
}

// String renders the identifier; ⊥ prints as "⊥".
func (v ViewID) String() string {
	if v.IsBottom() {
		return "⊥"
	}
	return fmt.Sprintf("g%d.%d", v.Epoch, int(v.Proc))
}

// ProcSet is an immutable, sorted, duplicate-free set of processor
// identifiers. The zero value is the empty set. Construct with NewProcSet;
// never mutate the underlying slice after construction.
type ProcSet struct {
	ids []ProcID // sorted ascending, no duplicates
}

// NewProcSet builds a set from the given identifiers, sorting and removing
// duplicates.
func NewProcSet(ids ...ProcID) ProcSet {
	out := make([]ProcID, len(ids))
	copy(out, ids)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	dedup := out[:0]
	for i, id := range out {
		if i == 0 || id != out[i-1] {
			dedup = append(dedup, id)
		}
	}
	return ProcSet{ids: dedup}
}

// RangeProcSet returns the set {0, 1, ..., n-1}, a convenient universe P.
func RangeProcSet(n int) ProcSet {
	ids := make([]ProcID, n)
	for i := range ids {
		ids[i] = ProcID(i)
	}
	return ProcSet{ids: ids}
}

// Size returns |S|.
func (s ProcSet) Size() int { return len(s.ids) }

// IsEmpty reports whether the set has no members.
func (s ProcSet) IsEmpty() bool { return len(s.ids) == 0 }

// Contains reports membership of p in the set.
func (s ProcSet) Contains(p ProcID) bool {
	i := sort.Search(len(s.ids), func(i int) bool { return s.ids[i] >= p })
	return i < len(s.ids) && s.ids[i] == p
}

// Members returns the members in ascending order. The returned slice is
// shared; callers must not modify it.
func (s ProcSet) Members() []ProcID { return s.ids }

// Equal reports whether the two sets have identical membership.
func (s ProcSet) Equal(t ProcSet) bool {
	if len(s.ids) != len(t.ids) {
		return false
	}
	for i := range s.ids {
		if s.ids[i] != t.ids[i] {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every member of s is a member of t.
func (s ProcSet) SubsetOf(t ProcSet) bool {
	for _, p := range s.ids {
		if !t.Contains(p) {
			return false
		}
	}
	return true
}

// Intersects reports whether s and t share at least one member.
func (s ProcSet) Intersects(t ProcSet) bool {
	for _, p := range s.ids {
		if t.Contains(p) {
			return true
		}
	}
	return false
}

// Union returns s ∪ t.
func (s ProcSet) Union(t ProcSet) ProcSet {
	return NewProcSet(append(append([]ProcID{}, s.ids...), t.ids...)...)
}

// Intersect returns s ∩ t.
func (s ProcSet) Intersect(t ProcSet) ProcSet {
	var out []ProcID
	for _, p := range s.ids {
		if t.Contains(p) {
			out = append(out, p)
		}
	}
	return ProcSet{ids: out}
}

// Without returns s \ {p}.
func (s ProcSet) Without(p ProcID) ProcSet {
	var out []ProcID
	for _, q := range s.ids {
		if q != p {
			out = append(out, q)
		}
	}
	return ProcSet{ids: out}
}

// Min returns the smallest member; it panics on the empty set.
func (s ProcSet) Min() ProcID {
	if len(s.ids) == 0 {
		panic("types: Min of empty ProcSet")
	}
	return s.ids[0]
}

// Key returns a canonical comparable representation, usable as a map key.
func (s ProcSet) Key() string { return s.String() }

// String renders the set as "{p0,p2,p5}".
func (s ProcSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range s.ids {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.String())
	}
	b.WriteByte('}')
	return b.String()
}

// View is an element of views = G × P(P): a view identifier paired with a
// membership set.
type View struct {
	ID  ViewID
	Set ProcSet
}

// String renders the view as "⟨g2.1 {p0,p1}⟩".
func (v View) String() string { return fmt.Sprintf("⟨%v %v⟩", v.ID, v.Set) }

// InitialView returns the distinguished initial view v0 = ⟨g0, P0⟩ for a
// given initial membership P0.
func InitialView(p0 ProcSet) View { return View{ID: G0(), Set: p0} }

// Value is an element of the paper's abstract data-value set A. Values are
// immutable and comparable, which the trace checkers rely on.
type Value string

// Label is an element of L = G × N⁺ × P with selectors id, seqno, origin —
// the system-wide unique names the VStoTO algorithm assigns to client values.
// Labels are ordered lexicographically.
type Label struct {
	ID     ViewID // the sender's view identifier when the value arrived
	Seqno  int    // per-(processor, view) sequence number, starting at 1
	Origin ProcID // the processor at which the value was submitted
}

// Less reports l < m in the lexicographic order on L.
func (l Label) Less(m Label) bool {
	if l.ID != m.ID {
		return l.ID.Less(m.ID)
	}
	if l.Seqno != m.Seqno {
		return l.Seqno < m.Seqno
	}
	return l.Origin < m.Origin
}

// Compare returns -1, 0, or +1 according to the lexicographic order on L,
// for slices.SortFunc.
func (l Label) Compare(m Label) int {
	if c := l.ID.Cmp(m.ID); c != 0 {
		return c
	}
	if c := cmp.Compare(l.Seqno, m.Seqno); c != 0 {
		return c
	}
	return cmp.Compare(l.Origin, m.Origin)
}

// String renders the label compactly.
func (l Label) String() string {
	return fmt.Sprintf("⟨%v#%d@%v⟩", l.ID, l.Seqno, l.Origin)
}

// SortLabels sorts the slice in ascending label order, in place.
func SortLabels(ls []Label) {
	sort.Slice(ls, func(i, j int) bool { return ls[i].Less(ls[j]) })
}

// QuorumSystem is the fixed set Q of quorums: subsets of P, any two of which
// intersect. The VStoTO algorithm uses it to decide which views are primary.
type QuorumSystem interface {
	// IsQuorumContained reports whether the membership set contains a quorum.
	IsQuorumContained(s ProcSet) bool
}

// Majorities is the default quorum system: a set contains a quorum iff it
// holds a strict majority of the universe.
type Majorities struct {
	// Universe is the full processor set P.
	Universe ProcSet
}

// IsQuorumContained reports whether s contains a strict majority of the
// universe. It counts the universe's members in s with one merge walk over
// the two sorted slices, allocating nothing.
func (m Majorities) IsQuorumContained(s ProcSet) bool {
	n, i := 0, 0
	for _, p := range m.Universe.ids {
		for i < len(s.ids) && s.ids[i] < p {
			i++
		}
		if i < len(s.ids) && s.ids[i] == p {
			n++
		}
	}
	return 2*n > len(m.Universe.ids)
}

// ExplicitQuorums is a quorum system given by an explicit list of quorums.
// Construct with NewExplicitQuorums, which validates pairwise intersection.
type ExplicitQuorums struct {
	quorums []ProcSet
}

// NewExplicitQuorums validates that every pair of quorums intersects and
// returns the quorum system.
func NewExplicitQuorums(quorums ...ProcSet) (ExplicitQuorums, error) {
	for i := range quorums {
		for j := i + 1; j < len(quorums); j++ {
			if !quorums[i].Intersects(quorums[j]) {
				return ExplicitQuorums{}, fmt.Errorf(
					"types: quorums %v and %v do not intersect", quorums[i], quorums[j])
			}
		}
	}
	return ExplicitQuorums{quorums: quorums}, nil
}

// IsQuorumContained reports whether s contains some quorum.
func (e ExplicitQuorums) IsQuorumContained(s ProcSet) bool {
	for _, q := range e.quorums {
		if q.SubsetOf(s) {
			return true
		}
	}
	return false
}

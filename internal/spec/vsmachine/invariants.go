package vsmachine

import (
	"fmt"

	"repro/internal/types"
)

// CheckInvariants verifies all fourteen parts of Lemma 4.1 on the current
// state, returning a descriptive error naming the violated part.
//
// Part numbering follows the paper:
//  1. created view identifiers are unique
//  2. non-⊥ current-viewid[p] ∈ created-viewids
//  3. p is a member of its current view
//  4. pending[p,g] ≠ λ ⇒ g ∈ created-viewids
//  5. pending[p,g] ≠ λ ⇒ current-viewid[p] ≠ ⊥
//  6. pending[p,g] ≠ λ ⇒ g ≤ current-viewid[p]
//  7. queue[g] ≠ λ ⇒ g ∈ created-viewids
//  8. ⟨m,p⟩ ∈ queue[g] ⇒ current-viewid[p] ≠ ⊥
//  9. ⟨m,p⟩ ∈ queue[g] ⇒ g ≤ current-viewid[p]
//  10. next[p,g] ≤ length(queue[g]) + 1
//  11. next-safe[p,g] ≤ length(queue[g]) + 1
//  12. next-safe[p,g] ≤ next[p,g]
//  13. ⟨g,S⟩ ∈ created ∧ next[p,g] ≠ 1 ⇒ p ∈ S
//  14. ⟨g,S⟩ ∈ created ∧ next-safe[p,g] ≠ 1 ⇒ p ∈ S
func (m *Machine) CheckInvariants() error {
	// Parts 1 and 7 hold by construction: Created holds each identifier
	// once, and a queue only as part of a created view.

	for _, p := range m.procs.Members() {
		cur := m.CurrentViewID[p]
		if cur.IsBottom() {
			continue
		}
		v, ok := m.View(cur)
		if !ok {
			return fmt.Errorf("lemma 4.1(2): current-viewid[%v]=%v not created", p, cur)
		}
		if !v.Set.Contains(p) {
			return fmt.Errorf("lemma 4.1(3): %v not a member of its current view %v", p, v)
		}
	}

	for _, k := range m.slots {
		if len(k.pending) == 0 {
			continue
		}
		if _, ok := m.view(k.G); !ok {
			return fmt.Errorf("lemma 4.1(4): pending[%v,%v] nonempty but %v not created", k.P, k.G, k.G)
		}
		cur := m.CurrentViewID[k.P]
		if cur.IsBottom() {
			return fmt.Errorf("lemma 4.1(5): pending[%v,%v] nonempty but current-viewid[%v]=⊥", k.P, k.G, k.P)
		}
		if cur.Less(k.G) {
			return fmt.Errorf("lemma 4.1(6): pending[%v,%v] nonempty but %v > current-viewid[%v]=%v",
				k.P, k.G, k.G, k.P, cur)
		}
	}

	for _, c := range m.Created {
		g := c.ID
		for _, e := range c.Queue {
			cur := m.CurrentViewID[e.P]
			if cur.IsBottom() {
				return fmt.Errorf("lemma 4.1(8): ⟨%v,%v⟩ in queue[%v] but current-viewid[%v]=⊥", e.M, e.P, g, e.P)
			}
			if cur.Less(g) {
				return fmt.Errorf("lemma 4.1(9): ⟨%v,%v⟩ in queue[%v] but %v > current-viewid[%v]=%v",
					e.M, e.P, g, g, e.P, cur)
			}
		}
	}

	for _, k := range m.slots {
		n, ns, q := int(k.next)+1, int(k.nextSafe)+1, len(m.Queue(k.G))
		v, created := m.View(k.G)
		switch {
		case n > q+1:
			return fmt.Errorf("lemma 4.1(10): next[%v,%v]=%d > len(queue[%v])+1=%d", k.P, k.G, n, k.G, q+1)
		case created && n != 1 && !v.Set.Contains(k.P):
			return fmt.Errorf("lemma 4.1(13): next[%v,%v]=%d but %v ∉ %v", k.P, k.G, n, k.P, v.Set)
		case ns > q+1:
			return fmt.Errorf("lemma 4.1(11): next-safe[%v,%v]=%d > len(queue[%v])+1=%d", k.P, k.G, ns, k.G, q+1)
		case ns > n:
			return fmt.Errorf("lemma 4.1(12): next-safe[%v,%v]=%d > next=%d", k.P, k.G, ns, n)
		case created && ns != 1 && !v.Set.Contains(k.P):
			return fmt.Errorf("lemma 4.1(14): next-safe[%v,%v]=%d but %v ∉ %v", k.P, k.G, ns, k.P, v.Set)
		}
	}
	return nil
}

// CurrentView returns p's current view, or ok=false when it is ⊥.
func (m *Machine) CurrentView(p types.ProcID) (types.View, bool) {
	g := m.CurrentViewID[p]
	if g.IsBottom() {
		return types.View{}, false
	}
	return m.View(g)
}

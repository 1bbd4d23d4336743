package vstoto

import (
	"math/bits"

	"repro/internal/ioa"
)

// Partial-order reduction for the bounded explorer. The reduction is the
// classic ample-set construction restricted to singleton ample sets: at a
// state where some enabled action a provably commutes with every other
// enabled action AND belongs to a conservative candidate class (see
// porAmpleIndex), the explorer expands only a — the pruned interleavings
// reorder a against independent actions and rejoin the explored graph.
//
// Soundness here rests on three legs (DESIGN.md §16 for the full sketch):
//
//   - the footprint relation below: two actions commute when their
//     footprints are disjoint, where a footprint names the state atoms an
//     action reads or writes (the VS machine, the environment's bounded
//     bcast/view budgets, and each processor's local state);
//   - pairwise commutation is NOT enough (condition C1 of the ample-set
//     theorem ranges over dependent actions reachable in the future, not
//     just currently enabled ones), so the candidate class is restricted
//     to confirm_p and brcv_p — actions whose execution cannot change any
//     other component's enabledness or future behavior. label_p is
//     deliberately NOT a candidate: labeling drains Delay, and whether a
//     value is still delayed when a newview arrives is exactly the
//     interleaving distinction the Figure 10 literal-precondition defect
//     lives in (forcing label first would mask it — porBrokenAmpleIndex in
//     the mutant tests demonstrates precisely that);
//   - every action strictly increases a monotone counter (bcasts, views,
//     vs-machine indices, per-processor seqnos/report indices), so the
//     explored graph is a DAG and the cycle proviso (C3) is vacuous.
//
// The construction is additionally validated empirically: the POR-off
// cross-check (ExplorePORCrossCheck) reruns the same bounds unreduced and
// gates on verdict agreement, and CI runs it on every push.

// porFootprint is the set of state atoms an action touches: the VS machine,
// the environment budgets, and a bitmask of processors. wide marks an
// action the relation cannot classify (treated as conflicting with
// everything).
type porFootprint struct {
	procs uint64
	vs    bool
	env   bool
	wide  bool
}

// disjoint reports whether no atom is shared (wide footprints are never
// disjoint from anything).
func (f porFootprint) disjoint(g porFootprint) bool {
	if f.wide || g.wide {
		return false
	}
	return !(f.vs && g.vs) && !(f.env && g.env) && f.procs&g.procs == 0
}

// porFootprintOf classifies every action the explorer can enumerate: the
// VS machine for its signature's, the environment budgets for bcast and
// createview, and the processor whose signature holds it. Receivers count:
// a gprcv to q writes q's state, a newview to p writes p's, and a bcast at
// p both consumes the shared value budget (the i-th bcast's identity
// depends on how many came before — two bcasts at different processors do
// NOT commute) and writes p's delay queue.
func porFootprintOf(a Act) porFootprint {
	f := porFootprint{vs: actSigs[a.Kind].vs, env: a.Kind == ActBcast || a.Kind == ActCreateview, wide: a.Kind == ActNone}
	if p, kind := a.proc(); kind != ioa.NotInSignature && (p < 0 || p >= 64) {
		f.wide = true // out of the bitmask's range
	} else if kind != ioa.NotInSignature {
		f.procs = 1 << uint(p)
	}
	return f
}

// porCandidate reports whether the action is in the conservative ample
// candidate class: purely processor-local actions whose execution cannot
// enable, disable, or alter any action outside their own processor.
// confirm_p moves a local cursor over an already-ordered prefix; brcv_p
// releases an already-confirmed value to the client. Neither feeds back
// into labeling, sending, or the view machinery.
func porCandidate(a Act) bool { return a.Kind == ActConfirm || a.Kind == ActBrcv }

// porAmpleIndex returns the index of a singleton ample action among the
// enabled set, or -1 when full expansion is required: the first candidate
// whose footprint is single-processor and disjoint from every other
// enabled action's. "First" is well-defined because the enabled
// enumeration order is a pure function of the state (PR 4), which keeps
// the reduced exploration deterministic.
func porAmpleIndex(acts []Act) int { return ampleIndex(acts, porCandidate, porFootprintOf) }

// ampleIndex returns the index of the first candidate whose footprint is
// one processor's alone and disjoint from every other action's, or -1.
func ampleIndex(acts []Act, candidate func(Act) bool, footprint func(Act) porFootprint) int {
	for i, a := range acts {
		if !candidate(a) {
			continue
		}
		fa := footprint(a)
		if fa.wide || fa.vs || fa.env || bits.OnesCount64(fa.procs) != 1 {
			continue
		}
		ok := true
		for j, b := range acts {
			if j != i && !fa.disjoint(footprint(b)) {
				ok = false
				break
			}
		}
		if ok {
			return i
		}
	}
	return -1
}

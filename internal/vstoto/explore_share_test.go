package vstoto

import (
	"bytes"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/ioa"
	"repro/internal/spec/vsmachine"
	"repro/internal/sweep"
	"repro/internal/types"
)

// Tests for what a successor shares with its parent: one derivation handed
// to every check, components copied only where an action writes, and
// component encodings reused from the parent.

// exploreViewCfg is the full n = 2 / 1 bcast / 1 view exploration (6010
// states): small enough to walk exhaustively in a test, and it exercises
// every action kind, state exchange included.
func exploreViewCfg() ExploreConfig {
	return ExploreConfig{N: 2, MaxBcasts: 1, Views: []types.View{
		{ID: types.ViewID{Epoch: 2, Proc: 1}, Set: types.NewProcSet(0, 1)},
	}}
}

// walkExploreWaves runs a breadth-first search over cfg's state space with
// the explorer's own initial state and dedup key, handing each wave's
// frontier to expand, which returns the successors to consider next.
func walkExploreWaves(t *testing.T, cfg ExploreConfig, expand func(cfg ExploreConfig, frontier []*exploreState) []*exploreState) int {
	t.Helper()
	initial, err := exploreInitial(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{string(initial.enc): true}
	frontier := []*exploreState{initial}
	for len(frontier) > 0 {
		var next []*exploreState
		for _, succ := range expand(cfg, frontier) {
			if !seen[string(succ.enc)] {
				seen[string(succ.enc)] = true
				next = append(next, succ)
			}
		}
		frontier = next
	}
	return len(seen)
}

// walkExploreEdges is walkExploreWaves one edge at a time: visit sees every
// enabled action of every reached state with the successor it leads to
// (and cfg with its defaults filled in), and reports whether to go on from
// that successor.
func walkExploreEdges(t *testing.T, cfg ExploreConfig, visit func(cfg ExploreConfig, cur, succ *exploreState, act ioa.Action) bool) int {
	t.Helper()
	values := bcastValues(cfg.MaxBcasts)
	return walkExploreWaves(t, cfg, func(cfg ExploreConfig, frontier []*exploreState) []*exploreState {
		var next []*exploreState
		for _, cur := range frontier {
			for _, act := range cur.enabled(nil, cfg, values) {
				succ := cur.successor(act, nil)
				succ.enc, succ.cut = succ.appendFingerprint(nil, nil, cur)
				if visit(cfg, cur, &succ, act.Action()) {
					next = append(next, &succ)
				}
			}
		}
		return next
	})
}

// errText is an error's text, "ok" for none.
func errText(err error) string {
	if err == nil {
		return "ok"
	}
	return err.Error()
}

// sameAbstract reports whether two results of f hold the same TO-machine
// state (an empty sequence equals a nil one).
func sameAbstract(a, b *AbstractState) bool {
	if a == nil || b == nil {
		return a == b
	}
	return slices.Equal(a.Queue, b.Queue) && slices.Equal(a.Next, b.Next) &&
		slices.EqualFunc(a.Pending, b.Pending, slices.Equal[[]types.Value])
}

// TestDerivedOnceMatchesExported is the differential for the single
// derived-variable pass and for the storage a worker reuses across edges:
// at every state of the view-change exploration, and of the literal
// Figure 10 mutant (which reaches violating states), the three cores run
// in sequence on ONE derivation — twice in a row, into the storage every
// state before it used too — give the error strings and the abstract
// state that the exported methods, each deriving afresh, give.
func TestDerivedOnceMatchesExported(t *testing.T) {
	mutant := exploreViewCfg()
	mutant.LiteralFigure10Label = true
	for name, cfg := range map[string]ExploreConfig{"clean": exploreViewCfg(), "mutant": mutant} {
		reused := newDerived()
		violations := 0
		states := walkExploreEdges(t, cfg, func(cfg ExploreConfig, _, succ *exploreState, act ioa.Action) bool {
			sys := succ.system()
			wantInv, wantDeep := errText(sys.CheckInvariants()), errText(sys.CheckDeepInvariants())
			wantAbs, wantErr := sys.Abstract()
			var inv, deep, absErr error
			for round := 1; round <= 2; round++ {
				d := sys.derive(reused)
				inv, deep = sys.checkInvariants(d), sys.checkDeepInvariants(d)
				var abs *AbstractState
				abs, absErr = sys.abstract(d)
				if got := errText(inv); got != wantInv {
					t.Fatalf("%s: after %v, round %d: checkInvariants %q, CheckInvariants %q", name, act, round, got, wantInv)
				}
				if got := errText(deep); got != wantDeep {
					t.Fatalf("%s: after %v, round %d: checkDeepInvariants %q, CheckDeepInvariants %q", name, act, round, got, wantDeep)
				}
				if errText(absErr) != errText(wantErr) || !sameAbstract(abs, wantAbs) {
					t.Fatalf("%s: after %v, round %d: abstract (%+v, %v), Abstract (%+v, %v)", name, act, round, abs, absErr, wantAbs, wantErr)
				}
			}
			if inv != nil || deep != nil || absErr != nil {
				violations++
				return false // nothing is proved about what follows a violation
			}
			return true
		})
		t.Logf("%s: %d states, %d violating successors", name, states, violations)
		if name == "clean" && (states != 6010 || violations != 0) {
			t.Errorf("clean: walked %d states with %d violations, want E13's 6010 and 0", states, violations)
		}
		if name == "mutant" && violations == 0 {
			t.Errorf("mutant: no violating state reached, so no failing verdict was compared")
		}
	}
}

// TestInvariantErrorTextPinned builds states violating Lemma 6.5 (through
// each of the three places a binding can come from) and Corollary 6.24 by
// hand, and pins the error text byte for byte: the context in parentheses
// is only formatted on this failing path now, and a red CI run must keep
// printing what it printed before.
func TestInvariantErrorTextPinned(t *testing.T) {
	procs := types.RangeProcSet(2)
	qs := types.Majorities{Universe: procs}
	build := func(p0 types.ProcSet) *System {
		ps := make([]*Proc, procs.Size())
		for _, p := range procs.Members() {
			ps[p] = NewProc(p, qs, p0)
			ps[p].TrackHistory = true
		}
		return NewSystem(vsmachine.New(procs, p0), ps, qs)
	}
	l1 := types.Label{ID: types.G0(), Seqno: 1, Origin: 0}
	l2 := types.Label{ID: types.G0(), Seqno: 1, Origin: 1}

	// Lemma 6.5 among the summaries: the two processors' own states.
	inSummary := build(procs)
	inSummary.Procs[0].content.set(l1, "a")
	inSummary.Procs[0].NextSeqno = 2
	inSummary.Procs[1].content.set(l1, "b")

	// Lemma 6.5 in a sent summary: p1's, in the run form every sent
	// summary has, is pending at VS.
	inSent := build(procs)
	inSent.Procs[0].content.set(l1, "a")
	inSent.Procs[0].NextSeqno = 2
	inSent.VS.ApplyGpsnd(&Summary{Runs: []ContentRun{{ID: l1.ID, Origin: l1.Origin, First: 1, Vals: []types.Value{"b"}}},
		Next: 1, High: types.G0()}, 1)

	// Lemma 6.5 in a processor's content: p1 is in no view, so its content
	// is in no summary.
	inContent := build(types.NewProcSet(0))
	inContent.Procs[0].content.set(l1, "a")
	inContent.Procs[0].NextSeqno = 2
	inContent.Procs[1].content.set(l1, "b")

	// Lemma 6.5 in a VS queue.
	inQueue := build(procs)
	inQueue.Procs[0].content.set(l1, "a")
	inQueue.Procs[0].NextSeqno = 2
	inQueue.VS.ApplyGpsnd(LabeledValue{L: l1, A: "b"}, 0)
	if err := inQueue.VS.ApplyVSOrder(LabeledValue{L: l1, A: "b"}, 0, types.G0()); err != nil {
		t.Fatal(err)
	}

	// Corollary 6.24: two confirmed prefixes that disagree. (CheckInvariants
	// stops at Corollary 6.23 on such a state, so only f reports 6.24.)
	split := build(procs)
	for _, p := range procs.Members() {
		split.Procs[p].content.set(l1, "a")
		split.Procs[p].content.set(l2, "b")
		split.Procs[p].NextSeqno, split.Procs[p].NextConfirm = 2, 2
	}
	split.Procs[0].Order, split.Procs[1].Order = []types.Label{l1}, []types.Label{l2}

	lemma65 := `lemma 6.5: allcontent not a function: ⟨g1.0#1@p0⟩ ↦ "a" and "b" `
	for _, c := range []struct {
		name       string
		sys        *System
		invariants string
		abstract   string
	}{
		{"6.5 in allstate", inSummary, lemma65 + "(allstate[p1,g1.0])", lemma65 + "(allstate[p1,g1.0])"},
		{"6.5 in a sent summary", inSent, lemma65 + "(allstate[p1,g1.0])", lemma65 + "(allstate[p1,g1.0])"},
		{"6.5 in content", inContent, lemma65 + "(content_p1)", lemma65 + "(content_p1)"},
		{"6.5 in queue", inQueue, lemma65 + "(queue[g1.0])", lemma65 + "(queue[g1.0])"},
		{"6.24", split,
			"corollary 6.23: confirm of allstate[p0,g1.0] (high g1.0) not a prefix of ord of allstate[p1,g1.0] (high g1.0)",
			"corollary 6.24: confirm sequences inconsistent: [⟨g1.0#1@p0⟩] (from allstate[p0,g1.0]) vs [⟨g1.0#1@p1⟩] (from allstate[p1,g1.0])"},
	} {
		if err := c.sys.CheckInvariants(); err == nil || err.Error() != c.invariants {
			t.Errorf("%s: CheckInvariants = %v\nwant %s", c.name, err, c.invariants)
		}
		if _, err := c.sys.Abstract(); err == nil || err.Error() != c.abstract {
			t.Errorf("%s: Abstract = %v\nwant %s", c.name, err, c.abstract)
		}
	}
}

// snapshot deep-copies a state, history variables included, for comparing
// against the original after something that must not have written to it.
func (s *exploreState) snapshot() *exploreState {
	out := &exploreState{vs: s.vs.CloneFor(vsmachine.WritesAll, nil), procs: make([]*Proc, len(s.procs)), bcasts: s.bcasts, views: s.views,
		enc: slices.Clone(s.enc), cut: slices.Clone(s.cut),
		abs: &AbstractState{Queue: slices.Clone(s.abs.Queue), Pending: slices.Clone(s.abs.Pending), Next: slices.Clone(s.abs.Next)}}
	for p, proc := range s.procs {
		out.procs[p] = proc.Clone()
	}
	for i, vals := range out.abs.Pending {
		out.abs.Pending[i] = slices.Clone(vals)
	}
	return out
}

// TestExploreSharedComponentsImmutable is the aliasing test for
// copy-on-write successors. Every frontier state of the view-change
// exploration, and of the stable one with two values (where a content run
// and a safe count grow past 1), is expanded twice, on different workers of a NumCPU pool
// (so the race detector watches the shared components: CI runs this under
// -race), and: the two expansions are identical; the parent is deep-equal
// to a snapshot taken before, so no action wrote through a shared map or
// slice; and every successor's cached encoding, component by component, is
// what encoding it from scratch gives. A value gprcv copies content and
// BuildOrder and shares GotState and Established, which only a summary
// writes: sharing BuildOrder there as well fails this test.
func TestExploreSharedComponentsImmutable(t *testing.T) {
	for _, c := range []struct {
		cfg           ExploreConfig
		states, edges int
	}{
		{exploreViewCfg(), 6010, 14397}, // E13's
		{ExploreConfig{N: 2, MaxBcasts: 2}, 1335, 3356},
	} {
		checkSharedComponentsImmutable(t, c.cfg, c.states, c.edges)
	}
}

func checkSharedComponentsImmutable(t *testing.T, cfg ExploreConfig, wantStates, wantEdges int) {
	workers := max(2, runtime.NumCPU())
	scratch := make([]exploreScratch, workers)
	none := newExploreVisited(false, 0) // empty: every successor is kept
	edges := 0
	states := walkExploreWaves(t, cfg, func(cfg ExploreConfig, frontier []*exploreState) []*exploreState {
		n := len(frontier)
		before := make([]*exploreState, n)
		for i, cur := range frontier {
			before[i] = cur.snapshot()
		}
		// Items i and i+n expand the same state; the pool hands them to
		// whichever workers are free.
		outs := sweep.RunWorker(workers, 2*n, func(w, i int) exploreOut {
			return exploreExpand(cfg, frontier[i%n], none, &scratch[w])
		})
		var next []*exploreState
		for i, cur := range frontier {
			if !reflect.DeepEqual(outs[i], outs[i+n]) {
				t.Fatalf("two expansions of one state differ:\n%+v\n%+v", outs[i], outs[i+n])
			}
			if !reflect.DeepEqual(cur, before[i]) {
				t.Fatalf("expanding a state changed it:\n%+v\nwas\n%+v", cur, before[i])
			}
			if enc, _ := cur.appendFingerprint(nil, nil, nil); !bytes.Equal(enc, cur.enc) {
				t.Fatalf("expanding a state changed its encoding")
			}
			if outs[i].err != nil {
				t.Fatal(outs[i].err)
			}
			for _, e := range outs[i].edges {
				edges++
				enc, cut := e.succ.appendFingerprint(nil, nil, nil)
				if !bytes.Equal(enc, e.succ.enc) || !slices.Equal(cut, e.succ.cut) {
					t.Fatalf("successor's cached encoding %x cut %v, encoded afresh %x cut %v", e.succ.enc, e.succ.cut, enc, cut)
				}
				if vs := e.succ.vs.AppendFingerprint(nil); !bytes.Equal(vs, enc[cut[0]:cut[1]]) {
					t.Fatalf("cut does not delimit the VS machine: %v", cut)
				}
				for k, p := range e.succ.vs.Procs().Members() {
					if pe := e.succ.procs[p].AppendFingerprint(nil); !bytes.Equal(pe, enc[cut[k+1]:cut[k+2]]) {
						t.Fatalf("cut does not delimit processor %v: %v", p, cut)
					}
				}
				next = append(next, e.succ)
			}
		}
		return next
	})
	if states != wantStates || edges != wantEdges {
		t.Errorf("walked %d states over %d edges, want %d and %d", states, edges, wantStates, wantEdges)
	}
}

// TestSuccessorCopiesOnlyTheSignature pins which components a successor
// shares: exactly those outside the action's signature.
func TestSuccessorCopiesOnlyTheSignature(t *testing.T) {
	seen := map[string]bool{}
	walkExploreEdges(t, exploreViewCfg(), func(_ ExploreConfig, cur, succ *exploreState, act ioa.Action) bool {
		if in := (&vsmachine.Auto{}).Classify(act) != ioa.NotInSignature; in == (succ.vs == cur.vs) {
			t.Fatalf("%v: in VS-machine's signature %t, machine shared %t", act, in, succ.vs == cur.vs)
		}
		for p, proc := range cur.procs {
			if in := (&Auto{P: proc}).Classify(act) != ioa.NotInSignature; in == (succ.procs[p] == proc) {
				t.Fatalf("%v: in VStoTO_%v's signature %t, processor shared %t", act, p, in, succ.procs[p] == proc)
			}
		}
		seen[act.ActionName()] = true
		return true
	})
	for _, name := range []string{"bcast", "brcv", "label", "confirm", "gpsnd", "gprcv", "safe", "newview", "createview", "vs-order"} {
		if !seen[name] {
			t.Errorf("the configuration never performed %s", name)
		}
	}
}

// TestExploreRetainsNothing pins that the storage workers reuse lives and
// dies with one Explore call: after three calls and two collections (the
// second empties sync.Pool victim caches) the live heap is back where it
// started, give or take 16 KB — no package-level scratch, pool or
// interning table grows with the calls.
func TestExploreRetainsNothing(t *testing.T) {
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	for i := 0; i < 3; i++ {
		if _, err := Explore(exploreViewCfg()); err != nil {
			t.Fatal(err)
		}
	}
	if grown := heap() - before; grown > 16<<10 {
		t.Errorf("live heap grew by %d bytes over three Explore calls, want ≤ 16 KB", grown)
	}
}

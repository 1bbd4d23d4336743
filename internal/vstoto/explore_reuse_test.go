package vstoto

import (
	"errors"
	"runtime"
	"testing"

	"repro/internal/types"
)

// The processor's mutators take the procEffects they build in (nil: the
// heap); the tests that build states by hand call them on the heap.

func (c *labelRuns) set(l types.Label, a types.Value) { c.setIn(nil, l, a) }

func (c *labelRuns) clone() labelRuns { return c.copyIn(nil) }

func (s *safeLabels) raise(origin types.ProcID, n int) { s.raiseIn(nil, origin, n) }

func (y GotState) with(q types.ProcID, x *Summary) GotState { return y.withIn(nil, q, x) }

func (p *Proc) cloneFor(a Act, out *Proc) *Proc { return p.cloneInto(a, out, nil) }

// newExploreVisited is a visited set of the tests' own, outside the pool.
func newExploreVisited(exactKeys bool, maxStates int) *exploreVisited {
	n := min(maxStates, 1<<20)
	if exactKeys {
		return &exploreVisited{exact: make(map[string]struct{}, n)}
	}
	return &exploreVisited{hashes: make(map[uint64]struct{}, n)}
}

// reuseConfigs differs from call to call in everything a pooled scratch
// could carry over: the processors, the bcasts and their values, the view
// menu, POR, the visited set's mode, the worker count, and a violation,
// the literal Figure 10 label's, in the middle. The first is the
// benchmark's explore.bounded.
func reuseConfigs() []ExploreConfig {
	views := []types.View{{ID: types.ViewID{Epoch: 2, Proc: 1}, Set: types.RangeProcSet(2)}}
	violating := exploreMutantCfg()
	violating.Workers = 2
	return []ExploreConfig{
		{N: 2, MaxBcasts: 2, MaxStates: 5000, Workers: 2, Views: views},
		{N: 3, MaxBcasts: 1, MaxStates: 3000, Workers: 1},
		{N: 2, MaxBcasts: 1, Views: views, POR: true, Workers: 2},
		violating,
		{N: 2, MaxBcasts: 1, Views: views, ExactKeys: true, MaxStates: 2000, Workers: 1},
		{N: 1, MaxBcasts: 3, Workers: 2},
		{N: 2, MaxBcasts: 2, MaxStates: 5000, Workers: 1, Views: views},
	}
}

// exploreOutcome is what one Explore call returns, comparably.
type exploreOutcome struct {
	res ExploreResult
	err string
}

func exploreOnce(cfg ExploreConfig) exploreOutcome {
	res, err := Explore(cfg)
	out := exploreOutcome{res: res}
	if err != nil {
		out.err = err.Error()
	}
	return out
}

// TestExploreReuseMatchesColdCalls: calls that reuse the pooled scratch of
// calls on other configurations return exactly what a cold call on their
// own configuration does, its violation and violating hash included.
func TestExploreReuseMatchesColdCalls(t *testing.T) {
	cfgs := reuseConfigs()
	cold := make([]exploreOutcome, len(cfgs))
	for i, cfg := range cfgs {
		runtime.GC()
		runtime.GC() // the second empties the pool: this call starts cold
		cold[i] = exploreOnce(cfg)
	}
	if r := cold[0].res; r.States != 5000 || r.Edges != 17042 || r.MaxDepth != 13 || r.SkippedEdges != 5477 {
		t.Fatalf("explore.bounded: %+v, want the benchmark's pinned 5000 states, 17042 edges, depth 13, 5477 skipped", r)
	}
	if cold[3].err == "" {
		t.Fatalf("the literal label precondition's run found no violation: %+v", cold[3].res)
	}
	for round := range 2 {
		for i, cfg := range cfgs {
			if got := exploreOnce(cfg); got != cold[i] {
				t.Errorf("round %d, configuration %d after reuse:\n%+v\nwant, as cold:\n%+v", round, i, got, cold[i])
			}
		}
	}
}

// TestExploreErrorSurvivesReuse: the error a call returned, and every
// error it wraps, keep their text after later calls reuse the storage the
// violating call ran in.
func TestExploreErrorSurvivesReuse(t *testing.T) {
	_, err := Explore(reuseConfigs()[3])
	if err == nil {
		t.Fatal("the literal label precondition's run found no violation")
	}
	var want []string
	for e := err; e != nil; e = errors.Unwrap(e) {
		want = append(want, e.Error())
	}
	for _, cfg := range reuseConfigs() {
		Explore(cfg)
	}
	i := 0
	for e := err; e != nil; e, i = errors.Unwrap(e), i+1 {
		if i >= len(want) || e.Error() != want[i] {
			t.Fatalf("error %d of the chain changed after reuse:\n%v\nwas\n%v", i, e, want[min(i, len(want)-1)])
		}
	}
}

// TestExploreArenaHoldsTwoWaves: after every wave, the workers' two
// generations hold exactly what that wave and the one before kept, so at
// the deepest wave they hold no more than the two widest consecutive
// waves did, far less than the whole search kept.
func TestExploreArenaHoldsTwoWaves(t *testing.T) {
	cfg := reuseConfigs()[0]
	var inUse, kept []int
	cfg.arenaHook = func(u, k int) { inUse, kept = append(inUse, u), append(kept, k) }
	if _, err := Explore(cfg); err != nil {
		t.Fatal(err)
	}
	widest, total := 0, 0
	for d, k := range kept {
		pair := k
		if d > 0 {
			pair += kept[d-1]
		}
		if inUse[d] != pair {
			t.Errorf("after wave %d the generations hold %d B, want the %d B it and the wave before kept", d, inUse[d], pair)
		}
		widest, total = max(widest, pair), total+k
	}
	deepest := inUse[len(inUse)-1]
	t.Logf("%d waves kept %d B in all; two consecutive waves %d B at most; %d B in use at the deepest", len(kept), total, widest, deepest)
	if deepest > widest || widest >= total {
		t.Errorf("%d B in use at the deepest wave, two widest consecutive waves %d B, all waves %d B", deepest, widest, total)
	}
}

func (s *exploreState) enabled(acts []Act, cfg ExploreConfig, values []types.Value) []Act {
	return s.enabledIn(acts, cfg, values, nil)
}

package vstoto

import (
	"runtime"
	"testing"

	"repro/internal/obs"
	"repro/internal/types"
)

// Configurations shared by the parallel-explorer tests: a small clean one
// (every interleaving satisfies the invariants) and the literal Figure 10
// mutant (a reachable deep-invariant violation).
// exploreCleanCfg explores 1 335 states. Its cap is ten times that: the
// tests that run it assert that the cap was not reached, so a merge that
// re-admits states fails fast instead of growing until the host kills it.
func exploreCleanCfg() ExploreConfig {
	return ExploreConfig{N: 2, MaxBcasts: 2, MaxStates: 13350}
}

func exploreMutantCfg() ExploreConfig {
	return ExploreConfig{
		N:         2,
		MaxBcasts: 1,
		Views: []types.View{
			{ID: types.ViewID{Epoch: 2, Proc: 1}, Set: types.NewProcSet(0, 1)},
		},
		LiteralFigure10Label: true,
		MaxStates:            300000,
	}
}

// TestExploreParallelDeterminism pins the tentpole contract: Explore
// returns an identical ExploreResult and an identical first-violation
// error at every worker count, on both a clean and a violating
// configuration. CI runs this under -race, which also proves the
// frozen-visited wave design is race-free.
func TestExploreParallelDeterminism(t *testing.T) {
	workerCounts := []int{1, 2, 3, runtime.NumCPU()}
	for name, cfg := range map[string]ExploreConfig{
		"clean":  exploreCleanCfg(),
		"mutant": exploreMutantCfg(),
	} {
		var baseRes ExploreResult
		var baseErr error
		for i, w := range workerCounts {
			cfg.Workers = w
			res, err := Explore(cfg)
			if res.Truncated {
				t.Fatalf("%s: workers=%d reached MaxStates %d", name, w, cfg.MaxStates)
			}
			if i == 0 {
				baseRes, baseErr = res, err
				t.Logf("%s: %d states, %d edges, depth %d, err=%v", name, res.States, res.Edges, res.MaxDepth, err)
				continue
			}
			if res != baseRes {
				t.Errorf("%s: workers=%d result %+v ≠ workers=%d result %+v", name, w, res, workerCounts[0], baseRes)
			}
			switch {
			case (err == nil) != (baseErr == nil):
				t.Errorf("%s: workers=%d err=%v but workers=%d err=%v", name, w, err, workerCounts[0], baseErr)
			case err != nil && err.Error() != baseErr.Error():
				t.Errorf("%s: workers=%d first violation %q ≠ %q", name, w, err, baseErr)
			}
		}
		if name == "mutant" && baseErr == nil {
			t.Errorf("mutant config found no violation")
		}
	}
}

// TestExplorePORCrossCheck pins the reduction contract: POR-on agrees with
// POR-off on the verdict for both a clean and a violating configuration,
// while visiting strictly fewer states through a nonzero number of ample
// expansions.
func TestExplorePORCrossCheck(t *testing.T) {
	for name, cfg := range map[string]ExploreConfig{
		"clean":  exploreCleanCfg(),
		"mutant": exploreMutantCfg(),
	} {
		c := ExplorePORCrossCheck(cfg)
		if c.Full.Truncated || c.Reduced.Truncated {
			t.Fatalf("%s: reached MaxStates %d (full %d, reduced %d states)", name, cfg.MaxStates, c.Full.States, c.Reduced.States)
		}
		if !c.Agree() {
			t.Fatalf("%s: verdict disagreement: full err=%v, reduced err=%v", name, c.FullErr, c.RedErr)
		}
		if c.Reduced.States >= c.Full.States {
			t.Errorf("%s: POR visited %d states, full %d — no reduction", name, c.Reduced.States, c.Full.States)
		}
		if c.Reduced.AmpleStates == 0 {
			t.Errorf("%s: reduced run reports no ample expansions", name)
		}
		t.Logf("%s: full %d/%d, reduced %d/%d (ample %d, ratio %.3f)",
			name, c.Full.States, c.Full.Edges, c.Reduced.States, c.Reduced.Edges,
			c.Reduced.AmpleStates, c.ReductionRatio())
	}
	if c := ExplorePORCrossCheck(exploreMutantCfg()); c.RedErr == nil {
		t.Fatalf("POR-on missed the literal Figure 10 violation")
	}
}

// TestExploreBrokenPORCaughtByCrossCheck proves the cross-check is a real
// oracle: the deliberately unsound ample rule (porBrokenAmpleIndex, which
// claims label commutes with createview and bcasts commute with each
// other) prunes every interleaving exhibiting the literal Figure 10
// defect, so the reduced run comes back clean while the full run violates
// — exactly the disagreement the cross-check flags.
func TestExploreBrokenPORCaughtByCrossCheck(t *testing.T) {
	cfg := exploreMutantCfg()
	cfg.ampleHook = porBrokenAmpleIndex
	c := ExplorePORCrossCheck(cfg)
	if c.FullErr == nil {
		t.Fatalf("full run missed the literal Figure 10 violation")
	}
	if c.RedErr != nil {
		t.Fatalf("broken POR still found the violation (%v) — mutant rule not masking", c.RedErr)
	}
	if c.Agree() {
		t.Fatalf("cross-check reports agreement despite a masked violation")
	}
	t.Logf("broken relation masked the violation (%d reduced states vs %d full) and the cross-check caught it",
		c.Reduced.States, c.Full.States)
}

// TestExploreFingerprintCollisionDoesNotMaskViolation forces the violating
// state's hash to collide with the initial state's and checks the violation
// is still reported identically. This pins the check-before-dedup order in
// exploreExpand: a collision may lose an unexplored subtree (under-count
// States), but every generated successor is checked before the visited
// lookup, so it can never hide a violation.
func TestExploreFingerprintCollisionDoesNotMaskViolation(t *testing.T) {
	cfg := exploreMutantCfg()
	cfg.Workers = 1
	want, wantErr := Explore(cfg)
	if wantErr == nil {
		t.Fatalf("mutant config found no violation")
	}

	var h0 uint64
	cfg.fpHook = func(h uint64) uint64 {
		if h0 == 0 {
			h0 = h // first hash computed is the initial state's
		}
		if h == want.violationHash {
			return h0
		}
		return h
	}
	got, gotErr := Explore(cfg)
	if gotErr == nil {
		t.Fatalf("collision with the initial state masked the violation (explored %d states)", got.States)
	}
	if gotErr.Error() != wantErr.Error() {
		t.Fatalf("collision changed the violation: %q ≠ %q", gotErr, wantErr)
	}
	if got.violationHash != h0 {
		t.Errorf("violating state's hash %#x not remapped to %#x", got.violationHash, h0)
	}
}

// TestExploreExactKeysAgreesWithHashed audits hash compaction: within the
// test bounds, a visited set keyed by full state encodings and one keyed
// by 64-bit hashes visit identical state spaces — no collision merged two
// distinct states.
func TestExploreExactKeysAgreesWithHashed(t *testing.T) {
	cfg := exploreCleanCfg()
	hashed, err := Explore(cfg)
	if err != nil {
		t.Fatalf("hashed run: %v", err)
	}
	cfg.ExactKeys = true
	exact, err := Explore(cfg)
	if err != nil {
		t.Fatalf("exact run: %v", err)
	}
	if hashed.Truncated || exact.Truncated {
		t.Fatalf("reached MaxStates %d: hashed %+v, exact %+v", cfg.MaxStates, hashed, exact)
	}
	if hashed != exact {
		t.Fatalf("hash compaction changed the exploration: hashed %+v ≠ exact %+v", hashed, exact)
	}
}

// TestExploreTruncatedExactStates pins the MaxStates contract: a truncated
// run's States is exactly the cap (not approximate), and the run reports
// how many checked edges had their (new) target dropped.
func TestExploreTruncatedExactStates(t *testing.T) {
	full, err := Explore(exploreCleanCfg())
	if err != nil {
		t.Fatalf("full run: %v", err)
	}
	cfg := exploreCleanCfg()
	cfg.MaxStates = 500
	if full.States <= cfg.MaxStates {
		t.Fatalf("config too small to truncate: %d states", full.States)
	}
	res, err := Explore(cfg)
	if err != nil {
		t.Fatalf("truncated run: %v", err)
	}
	if !res.Truncated {
		t.Fatalf("run not truncated")
	}
	if res.States != cfg.MaxStates {
		t.Errorf("truncated States = %d, want exactly %d", res.States, cfg.MaxStates)
	}
	if res.SkippedEdges == 0 {
		t.Errorf("truncated run reports no skipped edges")
	}
	if full.SkippedEdges != 0 || full.Truncated {
		t.Errorf("full run reports truncation: %+v", full)
	}
}

// TestExploreObsCounters checks the explore.* instruments match the result
// counters, on a full run with POR and on the benchmark's truncated one,
// whose last waves are expanded in prefixes: explore.waves still counts
// the search's levels, MaxDepth + 1 (14 on the benchmark's).
func TestExploreObsCounters(t *testing.T) {
	bench := ExploreConfig{N: 2, MaxBcasts: 2, MaxStates: 5000, Views: []types.View{
		{ID: types.ViewID{Epoch: 2, Proc: 1}, Set: types.RangeProcSet(2)},
	}}
	clean := exploreCleanCfg()
	clean.POR = true
	for name, cfg := range map[string]ExploreConfig{"clean POR": clean, "bench truncated": bench} {
		reg := obs.New()
		cfg.Obs = reg
		res, err := Explore(cfg)
		if err != nil {
			t.Fatalf("%s: explore: %v", name, err)
		}
		for counter, want := range map[string]int{
			"explore.states":        res.States,
			"explore.edges":         res.Edges,
			"explore.ample_states":  res.AmpleStates,
			"explore.skipped_edges": res.SkippedEdges,
		} {
			if got := reg.Counter(counter).Value(); got != int64(want) {
				t.Errorf("%s: %s = %d, want %d", name, counter, got, want)
			}
		}
		if reg.Counter("explore.waves").Value() != int64(res.MaxDepth)+1 {
			t.Errorf("%s: explore.waves = %d, want MaxDepth+1 = %d", name, reg.Counter("explore.waves").Value(), res.MaxDepth+1)
		}
		if reg.Gauge("explore.frontier").Value() == 0 {
			t.Errorf("%s: explore.frontier gauge never set", name)
		}
		if name == "bench truncated" && (!res.Truncated || res.MaxDepth != 13) {
			t.Errorf("%s: truncated %t at depth %d, want true and 13", name, res.Truncated, res.MaxDepth)
		}
		if name == "clean POR" && res.Truncated {
			t.Errorf("%s: reached MaxStates %d", name, cfg.MaxStates)
		}
	}
}

// porBrokenAmpleIndex is the deliberately unsound ample rule used by the
// mutant tests (and referenced by the soundness sketch): it admits every
// single-processor action as a candidate — including label_p — and drops
// the environment atom from bcast, i.e. it claims label_p commutes with
// createview and bcast_p commutes with bcast_q. Both claims are wrong
// (labeling races the view machinery through the delay queue; bcast order
// determines value identity), and on the literal-Figure-10 configuration
// the rule forces every value to be labeled before any view is created,
// pruning exactly the interleavings that exhibit the defect. The POR-off
// cross-check catches it as a verdict disagreement.
func porBrokenAmpleIndex(acts []Act) int {
	return ampleIndex(acts, func(Act) bool { return true }, func(a Act) porFootprint {
		f := porFootprintOf(a)
		if a.Kind == ActBcast || a.Kind == ActLabel {
			f.env = false
		}
		return f
	})
}

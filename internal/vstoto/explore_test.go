package vstoto

import (
	"testing"

	"repro/internal/types"
)

// TestExploreStableGroup exhaustively checks every interleaving of two
// processors in a single stable view with two client values: all schedules
// of labeling, sending, vs-ordering, delivery, safe, confirm, and report
// satisfy the Section 6 invariants and the forward simulation.
func TestExploreStableGroup(t *testing.T) {
	res, err := Explore(ExploreConfig{
		N:         2,
		MaxBcasts: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatal("exploration truncated; raise bounds")
	}
	if res.States < 100 {
		t.Fatalf("suspiciously few states: %d", res.States)
	}
	if res.MaxQueueLen != 2 {
		t.Fatalf("deliveries not exercised: max abstract queue %d, want 2", res.MaxQueueLen)
	}
	t.Logf("stable: %d states, %d edges", res.States, res.Edges)
}

// TestExploreWithViewChange adds one view change to the menu: every
// interleaving of the state exchange with client traffic is covered,
// including schedules where the newview interrupts any stage of a value's
// progress.
func TestExploreWithViewChange(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive exploration is slow; skipped in -short mode")
	}
	res, err := Explore(ExploreConfig{
		N:         2,
		MaxBcasts: 1,
		Views: []types.View{
			{ID: types.ViewID{Epoch: 2, Proc: 1}, Set: types.RangeProcSet(2)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatal("exploration truncated")
	}
	if res.MaxQueueLen < 1 {
		t.Fatal("the value was never confirmed in any schedule")
	}
	t.Logf("view change: %d states, %d edges", res.States, res.Edges)
}

// TestExploreMinorityView covers schedules involving a non-primary view:
// a singleton view of p0 (no quorum of 2-of-2 majorities... with N=2
// majority quorums need 2, so {p0} is non-primary) interleaved with a
// return to a full primary view.
func TestExploreMinorityView(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive exploration is slow; skipped in -short mode")
	}
	res, err := Explore(ExploreConfig{
		N:         2,
		MaxBcasts: 1,
		Views: []types.View{
			{ID: types.ViewID{Epoch: 2, Proc: 0}, Set: types.NewProcSet(0)},
			{ID: types.ViewID{Epoch: 3, Proc: 0}, Set: types.RangeProcSet(2)},
		},
		MaxStates: 400000,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("minority: %d states, %d edges, truncated=%t, maxQueue=%d",
		res.States, res.Edges, res.Truncated, res.MaxQueueLen)
}

// TestExploreFindsLiteralLabelBug: with the paper's literal Figure 10
// label precondition (no status check), the exhaustive explorer must find
// an interleaving that breaks the safety argument — the duplicate-ordering
// defect documented in DESIGN.md. This pins both the defect and the
// explorer's ability to catch real bugs.
func TestExploreFindsLiteralLabelBug(t *testing.T) {
	_, err := Explore(ExploreConfig{
		N:         2,
		MaxBcasts: 1,
		Views: []types.View{
			{ID: types.ViewID{Epoch: 2, Proc: 1}, Set: types.RangeProcSet(2)},
		},
		LiteralFigure10Label: true,
		MaxStates:            300000,
	})
	if err == nil {
		t.Fatal("exhaustive exploration did not find the literal-Figure-10 defect")
	}
	t.Logf("explorer found the defect: %v", err)
}

// TestExploreRejectsBadConfig: a configuration with no processor, or a
// negative bcast bound, is an error — not a vacuous clean result, and not
// a panic inside a worker.
func TestExploreRejectsBadConfig(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  ExploreConfig
		want string
	}{
		{"no processors", ExploreConfig{N: 0, MaxBcasts: 1}, "explore: bad config: N = 0, need at least one processor"},
		{"negative processors", ExploreConfig{N: -2}, "explore: bad config: N = -2, need at least one processor"},
		{"negative bcasts", ExploreConfig{N: 2, MaxBcasts: -1}, "explore: bad config: MaxBcasts = -1, need at least 0"},
		{"negative bcasts, POR", ExploreConfig{N: 2, MaxBcasts: -3, POR: true}, "explore: bad config: MaxBcasts = -3, need at least 0"},
	} {
		res, err := Explore(c.cfg)
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: Explore = %+v, %v; want error %q", c.name, res, err, c.want)
		}
	}
	if _, err := Explore(ExploreConfig{N: 1}); err != nil {
		t.Errorf("one processor, no bcasts: %v", err)
	}
}

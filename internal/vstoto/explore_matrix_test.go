package vstoto

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/types"
)

// exploreMatrixConfigs are the configurations TestExploreMatrixGolden pins:
// E13's three, the benchmark's two truncations, the literal Figure 10
// mutant with two values, a minority view and an n = 3 run. Rows whose
// full search would not fit the test's budget are truncated by MaxStates,
// and their names say so.
func exploreMatrixConfigs() []struct {
	name string
	cfg  ExploreConfig
} {
	full2 := types.View{ID: types.ViewID{Epoch: 2, Proc: 1}, Set: types.RangeProcSet(2)}
	return []struct {
		name string
		cfg  ExploreConfig
	}{
		{"e13 stable n=2 b=2", ExploreConfig{N: 2, MaxBcasts: 2}},
		{"e13 view change n=2 b=1", ExploreConfig{N: 2, MaxBcasts: 1, Views: []types.View{full2}}},
		{"e13 literal label n=2 b=1", ExploreConfig{N: 2, MaxBcasts: 1, Views: []types.View{full2}, LiteralFigure10Label: true, MaxStates: 300000}},
		{"bench n=2 b=2 truncated 5000", ExploreConfig{N: 2, MaxBcasts: 2, Views: []types.View{full2}, MaxStates: 5000}},
		{"bench n=2 b=2 truncated 200", ExploreConfig{N: 2, MaxBcasts: 2, Views: []types.View{full2}, MaxStates: 200}},
		{"literal label n=2 b=2", ExploreConfig{N: 2, MaxBcasts: 2, Views: []types.View{full2}, LiteralFigure10Label: true, MaxStates: 300000}},
		{"minority n=2 b=1 truncated 5000", ExploreConfig{N: 2, MaxBcasts: 1, MaxStates: 5000, Views: []types.View{
			{ID: types.ViewID{Epoch: 2, Proc: 0}, Set: types.NewProcSet(0)},
			{ID: types.ViewID{Epoch: 3, Proc: 0}, Set: types.RangeProcSet(2)},
		}}},
		{"n=3 b=1 truncated 5000", ExploreConfig{N: 3, MaxBcasts: 1, MaxStates: 5000, Views: []types.View{
			{ID: types.ViewID{Epoch: 2, Proc: 2}, Set: types.RangeProcSet(3)},
		}}},
	}
}

// exploreMatrix runs every configuration at workers {1, 2}, POR {off, on}
// and ExactKeys {off, on}, one line per run: the result with every field
// (violationHash included) and the first violation.
func exploreMatrix() string {
	var b strings.Builder
	for _, c := range exploreMatrixConfigs() {
		for _, workers := range []int{1, 2} {
			for _, por := range []bool{false, true} {
				for _, exact := range []bool{false, true} {
					cfg := c.cfg
					cfg.Workers, cfg.POR, cfg.ExactKeys = workers, por, exact
					res, err := Explore(cfg)
					fmt.Fprintf(&b, "%s workers=%d por=%t exact=%t: %+v err=%v\n", c.name, workers, por, exact, res, err)
				}
			}
		}
	}
	return b.String()
}

// TestExploreMatrixGolden pins the explorer's behaviour on a matrix of
// configurations: every count, the violating state's hash and the first
// violation's text must equal testdata/explore_matrix.golden. A change to
// the explorer's state representation, its checks or its encoding that
// moves any of them fails here. The failure prints the whole current
// matrix, which is the new golden after a deliberate change.
func TestExploreMatrixGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("the matrix runs 64 explorations; skipped in -short mode")
	}
	want, err := os.ReadFile("testdata/explore_matrix.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := exploreMatrix()
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("explore matrix differs from the golden at line %d:\n got: %q\nwant: %q\nfull output:\n%s", i+1, gl, wl, got)
		}
	}
}

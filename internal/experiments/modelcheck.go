package experiments

import (
	"fmt"
	"runtime"

	"repro/internal/types"
	"repro/internal/vstoto"
)

// E13 records the bounded exhaustive model-checking results: for tiny
// configurations, every reachable state of the spec-level VStoTO-system is
// checked against the Section 6 invariants (shallow and deep) and every
// transition against the forward-simulation step condition — Theorem 6.26
// over all interleavings within the bounds, not a sample. The last
// configuration reverts label(a)_p to the paper's literal Figure 10
// precondition and requires the explorer to FIND the resulting violation.
//
// Each configuration is explored three times. The unreduced run at
// workers=1 is the reference (the "full" row); at NumCPU it must
// reproduce every count and the first violation; with partial-order
// reduction (the "por" row) it must reach the same verdict while visiting
// fewer states.
func E13(_ int64) *Table {
	t := &Table{
		ID:    "E13",
		Title: "Bounded exhaustive model checking of VStoTO-system",
		Claim: "every interleaving within the bounds satisfies Theorem 6.26; the literal Figure 10 label rule is refuted by a concrete schedule; " +
			"the worker count changes no count or violation, and POR reaches every verdict on fewer states",
		Columns: []string{"scenario", "mode", "states", "edges", "depth", "ample", "verdict"},
	}
	full2 := types.View{ID: types.ViewID{Epoch: 2, Proc: 1}, Set: types.RangeProcSet(2)}
	scenarios := []struct {
		name string
		cfg  vstoto.ExploreConfig
		// expectViolation: the run must FIND a bug (the literal-label row).
		expectViolation bool
	}{
		{"n=2, 2 values, stable view", vstoto.ExploreConfig{N: 2, MaxBcasts: 2}, false},
		{"n=2, 1 value, 1 view change", vstoto.ExploreConfig{N: 2, MaxBcasts: 1, Views: []types.View{full2}}, false},
		{"n=2, literal Figure 10 label", vstoto.ExploreConfig{
			N: 2, MaxBcasts: 1, Views: []types.View{full2}, LiteralFigure10Label: true, MaxStates: 300000,
		}, true},
	}
	for _, sc := range scenarios {
		row := func(mode string, res vstoto.ExploreResult, err error) {
			verdict := "all interleavings safe"
			switch {
			case sc.expectViolation && err != nil:
				verdict = "defect found (as expected)"
			case sc.expectViolation:
				verdict = "NO DEFECT FOUND"
				t.Failures = append(t.Failures, fmt.Sprintf("%s %s: literal rule unexpectedly survived", sc.name, mode))
			case err != nil:
				verdict = "VIOLATION"
				t.Failures = append(t.Failures, fmt.Sprintf("%s %s: %v", sc.name, mode, err))
			case res.Truncated:
				verdict = "TRUNCATED"
				t.Failures = append(t.Failures, fmt.Sprintf("%s %s: state budget exhausted", sc.name, mode))
			}
			ample := "-"
			if mode == "por" {
				ample = fmt.Sprint(res.AmpleStates)
			}
			t.Rows = append(t.Rows, []string{sc.name, mode, fmt.Sprint(res.States), fmt.Sprint(res.Edges),
				fmt.Sprint(res.MaxDepth), ample, verdict})
		}

		cfg := sc.cfg
		cfg.Workers = 1
		full, fullErr := vstoto.Explore(cfg)
		cfg.Workers = runtime.NumCPU()
		par, parErr := vstoto.Explore(cfg)
		if par != full || fmt.Sprint(parErr) != fmt.Sprint(fullErr) {
			t.Failures = append(t.Failures, fmt.Sprintf("%s: workers=%d (%+v, %v) diverged from workers=1 (%+v, %v)",
				sc.name, cfg.Workers, par, parErr, full, fullErr))
		}
		cfg.POR = true
		red, redErr := vstoto.Explore(cfg)
		if (redErr == nil) != (fullErr == nil) {
			t.Failures = append(t.Failures, fmt.Sprintf("%s: POR verdict %v disagrees with unreduced %v", sc.name, redErr, fullErr))
		}
		if red.States >= full.States {
			t.Failures = append(t.Failures, fmt.Sprintf("%s: POR visited %d states vs %d unreduced — no reduction",
				sc.name, red.States, full.States))
		}
		row("full", full, fullErr)
		row("por", red, redErr)
	}
	return t
}

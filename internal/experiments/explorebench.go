package experiments

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/types"
	"repro/internal/vstoto"
)

// exploreBenchConfig is the fixed configuration behind BENCH_explore.json:
// two processors, two client values, one view change. Big enough to be a
// real capacity signal (~300k states, depth 39 — about 2 bcast/view bounds
// past where the string-fingerprint serial explorer was practical), small
// enough for a CI job. The counts it produces are exact and
// machine-independent (FNV fingerprints, deterministic wave merge), so CI
// pins them against the checked-in artifact.
func exploreBenchConfig() vstoto.ExploreConfig {
	return vstoto.ExploreConfig{
		N:         2,
		MaxBcasts: 2,
		Views: []types.View{
			{ID: types.ViewID{Epoch: 2, Proc: 1}, Set: types.NewProcSet(0, 1)},
		},
	}
}

// ExploreBenchReport is the exploration pin (BENCH_explore.json): the
// fixed configuration above explored unreduced and reduced, with exact
// counts and the POR agreement verdict. Every field is a pure function of
// the configuration, identical for every worker count and every host, so
// CI regenerates it and diffs it against the checked-in file.
type ExploreBenchReport struct {
	// Bounds of the fixed configuration, recorded so the artifact is
	// self-describing.
	N         int `json:"n"`
	MaxBcasts int `json:"max_bcasts"`
	Views     int `json:"views"`

	// Unreduced run.
	States      int `json:"states"`
	Edges       int `json:"edges"`
	MaxDepth    int `json:"max_depth"`
	MaxQueueLen int `json:"max_queue_len"`

	// Reduced (POR) run plus the agreement cross-check.
	PORStates      int     `json:"por_states"`
	POREdges       int     `json:"por_edges"`
	PORAmpleStates int     `json:"por_ample_states"`
	ReductionRatio float64 `json:"por_reduction_ratio"`
	PORAgree       bool    `json:"por_agree"`
	ViolationFull  string  `json:"violation_full,omitempty"`
	ViolationPOR   string  `json:"violation_por,omitempty"`
}

// ExploreBench runs the fixed configuration unreduced then reduced at the
// given worker count and reports both.
func ExploreBench(workers int) *ExploreBenchReport {
	cfg := exploreBenchConfig()
	cfg.Workers = workers
	rep := &ExploreBenchReport{
		N:         cfg.N,
		MaxBcasts: cfg.MaxBcasts,
		Views:     len(cfg.Views),
	}

	full, fullErr := vstoto.Explore(cfg)
	rep.States, rep.Edges = full.States, full.Edges
	rep.MaxDepth, rep.MaxQueueLen = full.MaxDepth, full.MaxQueueLen
	if fullErr != nil {
		rep.ViolationFull = fullErr.Error()
	}

	cfg.POR = true
	red, redErr := vstoto.Explore(cfg)
	rep.PORStates, rep.POREdges = red.States, red.Edges
	rep.PORAmpleStates = red.AmpleStates
	if full.States > 0 {
		rep.ReductionRatio = float64(red.States) / float64(full.States)
	}
	rep.PORAgree = (fullErr == nil) == (redErr == nil)
	if redErr != nil {
		rep.ViolationPOR = redErr.Error()
	}
	return rep
}

// E18 validates the parallel explorer the way E17 validates parallel
// apply: on three configurations (a stable group, a view change, and the
// literal Figure 10 mutant) it checks that worker counts 1 and NumCPU
// produce identical results and identical first violations, and that POR
// agrees with the unreduced run on every verdict while pruning states.
// The wall-clock columns are informational; every count is gated.
func E18(_ int64) *Table {
	t := &Table{
		ID:    "E18",
		Title: "parallel model checking: determinism and POR cross-check",
		Claim: "Explore is byte-identical at workers=1 vs NumCPU (counts and first violation), and POR agrees with the unreduced run on every verdict while visiting fewer states",
		Columns: []string{"config", "mode", "states", "edges", "depth", "ample",
			"wall elapsed", "verdict"},
	}

	scenarios := []struct {
		name          string
		cfg           vstoto.ExploreConfig
		wantViolation bool
	}{
		{"n=2 bcasts=2 (stable)", vstoto.ExploreConfig{N: 2, MaxBcasts: 2}, false},
		{"n=2 bcasts=1 views=1", vstoto.ExploreConfig{N: 2, MaxBcasts: 1,
			Views: []types.View{{ID: types.ViewID{Epoch: 2, Proc: 1}, Set: types.NewProcSet(0, 1)}}}, false},
		{"literal Figure 10 label", vstoto.ExploreConfig{N: 2, MaxBcasts: 1,
			Views:                []types.View{{ID: types.ViewID{Epoch: 2, Proc: 1}, Set: types.NewProcSet(0, 1)}},
			LiteralFigure10Label: true, MaxStates: 300000}, true},
	}

	verdict := func(err error) string {
		if err == nil {
			return "clean"
		}
		return "violation"
	}
	for _, sc := range scenarios {
		// Determinism: workers=1 is the reference; NumCPU must reproduce it.
		cfg := sc.cfg
		cfg.Workers = 1
		start := time.Now()
		ref, refErr := vstoto.Explore(cfg)
		refElapsed := time.Since(start)
		cfg.Workers = runtime.NumCPU()
		par, parErr := vstoto.Explore(cfg)
		if par != ref {
			t.Failures = append(t.Failures, fmt.Sprintf(
				"%s: workers=%d result %+v diverged from workers=1 %+v", sc.name, cfg.Workers, par, ref))
		}
		if (parErr == nil) != (refErr == nil) ||
			(parErr != nil && parErr.Error() != refErr.Error()) {
			t.Failures = append(t.Failures, fmt.Sprintf(
				"%s: workers=%d violation %v diverged from workers=1 %v", sc.name, cfg.Workers, parErr, refErr))
		}
		if sc.wantViolation != (refErr != nil) {
			t.Failures = append(t.Failures, fmt.Sprintf(
				"%s: want violation=%v, got err=%v", sc.name, sc.wantViolation, refErr))
		}

		// Reduction: POR must agree on the verdict and visit fewer states.
		c := vstoto.ExplorePORCrossCheck(sc.cfg)
		if !c.Agree() {
			t.Failures = append(t.Failures, fmt.Sprintf(
				"%s: POR verdict disagreement: full=%v reduced=%v", sc.name, c.FullErr, c.RedErr))
		}
		if c.Reduced.States >= c.Full.States {
			t.Failures = append(t.Failures, fmt.Sprintf(
				"%s: POR visited %d states vs %d unreduced — no reduction", sc.name, c.Reduced.States, c.Full.States))
		}

		t.Rows = append(t.Rows,
			[]string{sc.name, "full", fmt.Sprint(ref.States), fmt.Sprint(ref.Edges),
				fmt.Sprint(ref.MaxDepth), "-", refElapsed.Round(time.Millisecond).String(), verdict(refErr)},
			[]string{sc.name, "por", fmt.Sprint(c.Reduced.States), fmt.Sprint(c.Reduced.Edges),
				fmt.Sprint(c.Reduced.MaxDepth), fmt.Sprint(c.Reduced.AmpleStates),
				fmt.Sprintf("ratio %.3f", c.ReductionRatio()), verdict(c.RedErr)})
	}
	return t
}

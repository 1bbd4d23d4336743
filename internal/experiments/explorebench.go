package experiments

import (
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

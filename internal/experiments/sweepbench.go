package experiments

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/chaos"
)

// SweepBenchReport is the sweep engine's determinism pin
// (BENCH_sweep.json): the digest of a full chaos campaign sweep, identical
// for every worker count and every host, so CI regenerates it and diffs it
// against the checked-in file.
type SweepBenchReport struct {
	Seed int64 `json:"seed"`
	// Runs is the number of independent deterministic runs in the workload
	// (one per campaign).
	Runs   int    `json:"runs"`
	Digest string `json:"digest"`
}

// sweepWorkload runs the workload at the given worker count and digests
// everything an observer can see: per-run chaos outcomes and the merged
// metric snapshot. Two passes with different worker counts must digest
// identically.
func sweepWorkload(seed int64, workers int) (digest string, runs int) {
	cfgs := make([]chaos.Config, 0, len(chaos.Campaigns))
	for _, ct := range chaos.Campaigns {
		cfgs = append(cfgs, chaos.Config{
			// 4s is the shortest window every campaign accepts (the
			// quorum-loss families' minimum).
			Campaign: ct, Seed: seed, N: 5, Window: 4 * time.Second,
		})
	}
	results := chaos.Sweep(cfgs, workers)

	type runSummary struct {
		Campaign  string `json:"campaign"`
		Seed      int64  `json:"seed"`
		Events    int    `json:"events"`
		Msgs      int    `json:"msgs"`
		Delivered int    `json:"delivered"`
		Violation string `json:"violation,omitempty"`
	}
	summaries := make([]runSummary, len(results))
	for i, r := range results {
		summaries[i] = runSummary{
			Campaign:  string(r.Config.Campaign),
			Seed:      r.Config.Seed,
			Events:    len(r.Schedule),
			Msgs:      r.Msgs,
			Delivered: r.Deliveries,
		}
		if r.Failed() {
			summaries[i].Violation = r.Violation.Check
		}
	}

	blob, err := json.Marshal(struct {
		Chaos  []runSummary `json:"chaos"`
		Merged any          `json:"merged"`
	}{summaries, chaos.MergedSnapshot(results)})
	if err != nil {
		panic(err) // all fields are plain data; cannot happen
	}
	return fmt.Sprintf("%x", sha256.Sum256(blob)), len(cfgs)
}

// SweepBench runs the workload above serially and then at the given worker
// count, and fails unless the two digests agree.
func SweepBench(seed int64, workers int) (*SweepBenchReport, error) {
	serial, runs := sweepWorkload(seed, 1)
	parallel, _ := sweepWorkload(seed, workers)
	if serial != parallel {
		return nil, fmt.Errorf("sweep digest diverged: workers=1 %s, workers=%d %s", serial, workers, parallel)
	}
	return &SweepBenchReport{Seed: seed, Runs: runs, Digest: serial}, nil
}

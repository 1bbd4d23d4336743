package experiments

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/chaos"
)

// SweepBenchReport is the machine-readable serial-vs-parallel comparison
// (BENCH_sweep.json): the same workload — a full chaos campaign sweep plus
// the bench-baseline scenarios — run once with one worker and once with
// the requested worker count, with a content digest proving the outputs
// are identical and wall-clock plus allocation figures for the two passes.
type SweepBenchReport struct {
	Seed    int64 `json:"seed"`
	Cores   int   `json:"cores"`
	Workers int   `json:"workers"`
	// Runs is the number of independent deterministic runs in the workload
	// (campaign configs + bench scenarios).
	Runs       int   `json:"runs"`
	SerialNS   int64 `json:"serial_ns"`
	ParallelNS int64 `json:"parallel_ns"`
	// Speedup is serial wall-clock over parallel wall-clock. On a
	// single-core host (or with -workers 1) it hovers around 1.0 and is not
	// a meaningful signal; the CI gate only applies on multi-core runners.
	Speedup float64 `json:"speedup"`
	// Identical reports that the serial and parallel passes produced
	// byte-identical output digests — the determinism claim, checked on
	// every invocation rather than trusted.
	Identical      bool   `json:"identical"`
	SerialDigest   string `json:"serial_digest"`
	ParallelDigest string `json:"parallel_digest"`
	// SerialAllocsPerRun / ParallelAllocsPerRun are heap allocations
	// (runtime MemStats Mallocs delta) divided by Runs, the coarse per-run
	// allocation cost the hot-path pooling work keeps down.
	SerialAllocsPerRun   uint64 `json:"serial_allocs_per_run"`
	ParallelAllocsPerRun uint64 `json:"parallel_allocs_per_run"`
}

// sweepWorkload runs the benchmark workload at the given worker count and
// digests everything an observer can see: per-run chaos outcomes, the
// merged metric snapshot, and the full bench-baseline report. Two passes
// with different worker counts must digest identically.
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

	bench := BenchBaselineWorkers(seed, workers)

	blob, err := json.Marshal(struct {
		Chaos  []runSummary `json:"chaos"`
		Merged any          `json:"merged"`
		Bench  *BenchReport `json:"bench"`
	}{summaries, chaos.MergedSnapshot(results), bench})
	if err != nil {
		panic(err) // all fields are plain data; cannot happen
	}
	return fmt.Sprintf("%x", sha256.Sum256(blob)), len(cfgs) + len(bench.Entries)
}

// SweepBench measures the sweep engine: the workload above, serial then
// parallel, with digests compared. Wall-clock numbers are real time (the
// only nondeterministic quantity this repository reports, and the point of
// the measurement); everything inside the runs stays virtual-time
// deterministic.
func SweepBench(seed int64, workers int) *SweepBenchReport {
	rep := &SweepBenchReport{Seed: seed, Cores: runtime.NumCPU(), Workers: workers}

	measure := func(w int) (string, int64, uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		digest, runs := sweepWorkload(seed, w)
		elapsed := time.Since(start).Nanoseconds()
		runtime.ReadMemStats(&after)
		rep.Runs = runs
		return digest, elapsed, after.Mallocs - before.Mallocs
	}

	var serialAllocs, parAllocs uint64
	rep.SerialDigest, rep.SerialNS, serialAllocs = measure(1)
	rep.ParallelDigest, rep.ParallelNS, parAllocs = measure(workers)
	rep.Identical = rep.SerialDigest == rep.ParallelDigest
	if rep.ParallelNS > 0 {
		rep.Speedup = float64(rep.SerialNS) / float64(rep.ParallelNS)
	}
	if rep.Runs > 0 {
		rep.SerialAllocsPerRun = serialAllocs / uint64(rep.Runs)
		rep.ParallelAllocsPerRun = parAllocs / uint64(rep.Runs)
	}
	return rep
}

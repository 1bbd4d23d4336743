// Command experiments regenerates every table of the reproduction's
// evaluation (E1–E17 in DESIGN.md): the paper's conditional properties
// (TO-property, VS-property), the Figure 12 phase decomposition, the
// Section 8 analytic bounds, the stable-storage baseline comparison, the
// randomized safety checks, and the ablations and extensions built on
// them. (The explorer's determinism and POR cross-check, once E18, is part
// of E13.) It also writes the two checked-in pins.
//
// Usage:
//
//	go run ./cmd/experiments                            # all experiments
//	go run ./cmd/experiments -exp E4                    # one experiment
//	go run ./cmd/experiments -seed 7                    # different randomness
//	go run ./cmd/experiments -workers 1                 # serial run
//	go run ./cmd/experiments -sweep-out BENCH_sweep.json
//	                                    # chaos-sweep determinism pin
//	go run ./cmd/experiments -explore-out BENCH_explore.json
//	                                    # model-checking state-space pin
//	go run ./cmd/experiments -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Runs are deterministic in the seed: -workers changes only wall-clock
// time, never a table cell or a pin (the sweep engine aggregates results
// in submission order).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"repro/internal/experiments"
	"repro/internal/prof"
)

func main() {
	var (
		exp        = flag.String("exp", "", "run a single experiment (E1..E17); default all")
		seed       = flag.Int64("seed", 1, "seed for all randomized runs")
		workers    = flag.Int("workers", runtime.NumCPU(), "parallel runs (1 = serial; output is identical either way)")
		csvDir     = flag.String("csv", "", "also write each table as CSV into this directory")
		sweepOut   = flag.String("sweep-out", "", "run the chaos sweep serially and at -workers, fail unless the digests agree, and write the pin to this JSON file")
		exploreOut = flag.String("explore-out", "", "explore the fixed model-checking configuration and write its exact counts to this JSON file")
		cpuProf    = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf    = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer stopProf()
	exit := func(code int) {
		stopProf()
		os.Exit(code)
	}

	if *sweepOut != "" {
		report, err := experiments.SweepBench(*seed, *workers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "FAIL: %v\n", err)
			exit(1)
		}
		if err := writeJSON(*sweepOut, report); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		fmt.Printf("sweep pin (runs=%d digest=%s) written to %s\n", report.Runs, report.Digest, *sweepOut)
		return
	}

	if *exploreOut != "" {
		report := experiments.ExploreBench(*workers)
		if err := writeJSON(*exploreOut, report); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		fmt.Printf("explore pin (states=%d edges=%d depth=%d, POR ratio %.3f) written to %s\n",
			report.States, report.Edges, report.MaxDepth, report.ReductionRatio, *exploreOut)
		if !report.PORAgree {
			fmt.Fprintf(os.Stderr, "FAIL: POR run disagrees with unreduced run (full=%q por=%q)\n",
				report.ViolationFull, report.ViolationPOR)
			exit(1)
		}
		if report.ViolationFull != "" {
			fmt.Fprintf(os.Stderr, "FAIL: benchmark configuration violated an invariant: %s\n", report.ViolationFull)
			exit(1)
		}
		if report.ReductionRatio >= 1 {
			fmt.Fprintf(os.Stderr, "FAIL: POR reduction ratio %.3f — reduction pruned nothing\n", report.ReductionRatio)
			exit(1)
		}
		return
	}

	var tables []*experiments.Table
	if *exp == "" {
		tables = experiments.AllWorkers(*seed, *workers)
	} else {
		run, ok := experiments.Runner(*exp)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (want E1..E17)\n", *exp)
			exit(2)
		}
		tables = []*experiments.Table{run(*seed, *workers)}
	}

	failed := 0
	for _, t := range tables {
		fmt.Println(t.Format())
		if len(t.Failures) > 0 {
			failed++
		}
		if *csvDir != "" {
			path := filepath.Join(*csvDir, strings.ToLower(t.ID)+".csv")
			if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "write %s: %v\n", path, err)
				exit(1)
			}
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d experiment(s) failed validation\n", failed)
		exit(1)
	}
}

// writeJSON writes v to path as indented JSON with a trailing newline, the
// byte format of the checked-in pins.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

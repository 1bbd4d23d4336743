// Command explore runs the bounded exhaustive model checker over the
// spec-level VStoTO-system: every reachable state of the composition (for
// a tiny configuration) is checked against the Section 6 invariants, and
// every transition against the forward-simulation step condition to
// TO-machine. Within the bounds this checks Theorem 6.26 for every
// interleaving, not just sampled ones.
//
// The search runs wave-parallel across -workers goroutines with results
// identical at every worker count; -por enables partial-order reduction,
// and -crosscheck runs the configuration both reduced and unreduced and
// fails on a verdict disagreement (the POR soundness smoke check CI runs).
// The summary line ends with the process's peak resident set: memory per
// frontier state, not speed, is what bounds how far a search goes.
//
// Usage:
//
//	go run ./cmd/explore -n 2 -bcasts 2
//	go run ./cmd/explore -n 2 -bcasts 2 -views 1 -por
//	go run ./cmd/explore -n 2 -bcasts 1 -views 1 -crosscheck
//	go run ./cmd/explore -n 2 -bcasts 1 -views 1 -literal-label   # finds the Figure 10 defect
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"repro/internal/types"
	"repro/internal/vstoto"
)

func main() {
	var (
		n         = flag.Int("n", 2, "number of processors")
		p0        = flag.Int("p0", 0, "initial-view size (0 = all)")
		bcasts    = flag.Int("bcasts", 2, "client values to explore")
		views     = flag.Int("views", 0, "number of additional full views to offer createview")
		maxStates = flag.Int("max-states", 2_000_000, "state budget (0 = unlimited)")
		workers   = flag.Int("workers", runtime.NumCPU(), "expansion parallelism (results are identical at every worker count)")
		por       = flag.Bool("por", false, "enable partial-order reduction")
		crossChk  = flag.Bool("crosscheck", false,
			"run both with and without partial-order reduction and fail on a verdict disagreement")
		literal = flag.Bool("literal-label", false,
			"use Figure 10's literal label precondition (reproduces the documented defect)")
	)
	flag.Parse()
	if *n < 1 {
		fmt.Fprintln(os.Stderr, "bad -n: need at least one processor")
		os.Exit(2)
	}
	if *bcasts < 0 {
		fmt.Fprintf(os.Stderr, "bad -bcasts: %d, need at least 0\n", *bcasts)
		os.Exit(2)
	}

	cfg := vstoto.ExploreConfig{
		N:                    *n,
		P0Size:               *p0,
		MaxBcasts:            *bcasts,
		MaxStates:            *maxStates,
		Workers:              *workers,
		POR:                  *por,
		LiteralFigure10Label: *literal,
	}
	for i := 0; i < *views; i++ {
		cfg.Views = append(cfg.Views, types.View{
			ID:  types.ViewID{Epoch: int64(2 + i), Proc: types.ProcID((i + 1) % *n)},
			Set: types.RangeProcSet(*n),
		})
	}

	if *crossChk {
		start := time.Now()
		c := vstoto.ExplorePORCrossCheck(cfg)
		elapsed := time.Since(start)
		fmt.Printf("full:    %d states, %d edges (depth %d)\n", c.Full.States, c.Full.Edges, c.Full.MaxDepth)
		fmt.Printf("reduced: %d states, %d edges (depth %d, %d ample, ratio %.3f)\n",
			c.Reduced.States, c.Reduced.Edges, c.Reduced.MaxDepth, c.Reduced.AmpleStates, c.ReductionRatio())
		fmt.Printf("cross-check completed in %v\n", elapsed.Round(time.Millisecond))
		if !c.Agree() {
			fmt.Printf("DISAGREEMENT: full err=%v, reduced err=%v\n", c.FullErr, c.RedErr)
			os.Exit(1)
		}
		if c.FullErr != nil {
			fmt.Printf("agreed VIOLATION: %v\n", c.FullErr)
			os.Exit(1)
		}
		fmt.Println("agreement: reduced and unreduced runs reach the same verdict (clean)")
		return
	}

	start := time.Now()
	res, err := vstoto.Explore(cfg)
	elapsed := time.Since(start)
	fmt.Printf("explored %d states, %d edges to depth %d in %v (workers=%d, max abstract queue %d, truncated=%t",
		res.States, res.Edges, res.MaxDepth, elapsed.Round(time.Millisecond), *workers, res.MaxQueueLen, res.Truncated)
	if res.Truncated {
		fmt.Printf(", %d edges skipped", res.SkippedEdges)
	}
	if *por {
		fmt.Printf(", %d ample states", res.AmpleStates)
	}
	fmt.Printf(", %s)\n", peakMemory())
	if err != nil {
		fmt.Printf("VIOLATION: %v\n", err)
		os.Exit(1)
	}
	fmt.Println("no violations: every interleaving within the bounds satisfies the Section 6 invariants and the forward simulation")
}

// peakMemory renders the process's peak resident set (VmHWM in
// /proc/self/status), or, where that file is missing, the memory the Go
// runtime has mapped, which it seldom returns: what bounds how far a
// search can go on a host.
func peakMemory() string {
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(status), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.Atoi(strings.TrimSpace(strings.TrimSuffix(v, "kB"))); err == nil {
					return fmt.Sprintf("peak RSS %d MB", kb>>10)
				}
			}
		}
	}
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}}
	metrics.Read(s)
	return fmt.Sprintf("Go runtime memory %d MB", s[0].Value.Uint64()>>20)
}

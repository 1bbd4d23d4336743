// Command chaos runs adversarial fault campaigns against the TO/VS stack
// and checks every run for trace conformance (VS-machine and TO-machine),
// recovery liveness after the final heal, and non-vacuity (traffic actually
// flowed). On a violation it shrinks the fault schedule to a minimal
// counterexample by delta debugging and writes a JSON artifact that -replay
// re-executes byte for byte.
//
// There are 22 campaigns (-list): nine oracle-level ones (pairwise
// partitions, ugly links, sub-π strike timing — faults only the simulated
// oracle can execute) and thirteen process-level ones, whose schedules are
// the very ones cmd/liverun injects into real processes for the same
// (campaign, -seed, -n, -window) — so a failed live scenario is rerun
// deterministically, and shrunk, here.
//
// Usage examples:
//
//	go run ./cmd/chaos -list
//	go run ./cmd/chaos -campaign all -runs 3
//	go run ./cmd/chaos -campaign leader-crash -seed 42 -n 6 -window 8s -v
//	go run ./cmd/chaos -campaign kill-waves -seed 1 -n 5 -window 8s   # liverun's schedule, simulated
//	go run ./cmd/chaos -campaign mixed -runs 5 -out artifacts/
//	go run ./cmd/chaos -campaign all -runs 8 -workers 1   # serial sweep
//	go run ./cmd/chaos -replay artifacts/mixed-seed3.json
//
// The campaign sweep fans the independent runs across -workers cores (and
// delta-debugging evaluates shrink candidates in parallel waves); every
// run is a pure function of its config, so -workers changes only
// wall-clock time — output and artifacts are identical at any setting.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/chaos"
	"repro/internal/prof"
)

func main() {
	var (
		campaign = flag.String("campaign", "all", "campaign type, or 'all'")
		seed     = flag.Int64("seed", 1, "first seed")
		runs     = flag.Int("runs", 1, "seeds per campaign (seed..seed+runs-1)")
		n        = flag.Int("n", 5, "number of processors")
		delta    = flag.Duration("delta", time.Millisecond, "good-channel delivery bound δ")
		window   = flag.Duration("window", 4*time.Second, "adversary window (forced heal at the end)")
		bound    = flag.Duration("bound", 0, "recovery-liveness deadline after the heal (0 = analytic b + 2d)")
		wire     = flag.Bool("wire", false, "transcode every payload through the wire codec")
		outDir   = flag.String("out", "", "directory for counterexample artifacts (default: current dir)")
		maxRuns  = flag.Int("shrink-runs", 600, "delta-debugging budget (candidate runs)")
		workers  = flag.Int("workers", runtime.NumCPU(), "parallel runs (1 = serial; output is identical either way)")
		replay   = flag.String("replay", "", "replay a counterexample artifact instead of running campaigns")
		list     = flag.Bool("list", false, "list campaign types and exit")
		verbose  = flag.Bool("v", false, "per-run detail")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	)
	flag.Parse()

	if *list {
		for _, ct := range chaos.Campaigns {
			fmt.Println(ct)
		}
		return
	}

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

	if *replay != "" {
		exit(replayArtifact(*replay, *verbose))
	}

	var campaigns []chaos.CampaignType
	if *campaign == "all" {
		campaigns = chaos.Campaigns
	} else {
		ct, err := chaos.ParseCampaign(*campaign)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(2)
		}
		campaigns = []chaos.CampaignType{ct}
	}

	var cfgs []chaos.Config
	for _, ct := range campaigns {
		for s := *seed; s < *seed+int64(*runs); s++ {
			cfgs = append(cfgs, chaos.Config{
				Campaign: ct, Seed: s, N: *n, Delta: *delta,
				Window: *window, RecoveryBound: *bound, Wire: *wire,
			})
		}
	}
	results := chaos.Sweep(cfgs, *workers)

	failures := 0
	for _, r := range results {
		ct, s := r.Config.Campaign, r.Config.Seed
		if r.Failed() && r.Violation.Check == "config" {
			// A bad config is a usage error, not a counterexample: it
			// would fail identically for every seed and its artifact
			// could never be replayed.
			fmt.Fprintln(os.Stderr, r.Violation.Detail)
			exit(2)
		}
		if !r.Failed() {
			if *verbose {
				fmt.Printf("PASS %-18s seed=%-3d events=%-4d msgs=%-4d deliveries=%-5d maxlag=%v (bound %v)\n",
					ct, s, len(r.Schedule), r.Msgs, r.Deliveries, r.Recovery.MaxLag, r.Bound)
			} else {
				fmt.Printf("PASS %-18s seed=%d\n", ct, s)
			}
			continue
		}
		failures++
		fmt.Printf("FAIL %-18s seed=%d: %v\n", ct, s, r.Violation)
		min, st := chaos.ShrinkResultN(r, *maxRuns, *workers)
		fmt.Printf("     shrunk %d → %d fault events in %d runs\n", st.From, st.To, st.Runs)
		path, err := writeArtifact(*outDir, min)
		if err != nil {
			fmt.Fprintf(os.Stderr, "     artifact: %v\n", err)
			continue
		}
		fmt.Printf("     counterexample: %s (replay with -replay %s)\n", path, path)
	}
	if failures > 0 {
		fmt.Printf("%d failing run(s)\n", failures)
		exit(1)
	}
}

func writeArtifact(dir string, r *chaos.Result) (string, error) {
	data, err := chaos.NewArtifact(r).Encode()
	if err != nil {
		return "", err
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return "", err
		}
	}
	name := fmt.Sprintf("%s-seed%d.json", r.Config.Campaign, r.Config.Seed)
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

func replayArtifact(path string, verbose bool) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	art, err := chaos.DecodeArtifact(data)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	fmt.Printf("replaying %s: campaign=%s seed=%d n=%d δ=%v window=%v events=%d\n",
		path, art.Campaign, art.Seed, art.N, time.Duration(art.DeltaNS),
		time.Duration(art.WindowNS), len(art.Events))
	if art.Check != "" {
		fmt.Printf("recorded violation: %s: %s\n", art.Check, art.Detail)
	}
	r := chaos.Run(art.Config())
	if verbose {
		for i, e := range r.Schedule {
			fmt.Printf("  event %d: %v\n", i, e)
		}
	}
	if r.Failed() {
		fmt.Printf("REPRODUCED: %v\n", r.Violation)
		if art.Check != "" && r.Violation.Check != art.Check {
			fmt.Printf("note: violated check %q differs from the recorded %q\n", r.Violation.Check, art.Check)
		}
		return 1
	}
	fmt.Println("NOT REPRODUCED: all checks passed")
	if art.Check != "" {
		fmt.Println("note: the artifact recorded a violation; the bug may have been fixed since")
	}
	return 0
}

// Command liverun runs chaos campaigns against real pgcsd processes: the
// live-cluster pipelines the CI live jobs run.
//
// A scenario is a chaos campaign (internal/chaos): the failures.Schedule
// chaos.Generate emits for (kind, seed, -n, -window), executed against
// real processes — bad/good/amnesia processor statuses as
// SIGSTOP/SIGCONT/SIGKILL and respawns, a node's full inbound column as
// its listener pause. The thirteen process-level campaigns are exactly
// the executable ones; a campaign with a fault only the oracle can do (an
// ugly link, a pairwise cut) is refused with the offending event named.
//
// Each scenario named by -scenarios (default kill-waves; "all" runs every
// process-level campaign) boots a fresh cluster of N daemons on
// localhost, drives it with the load generator while the schedule runs,
// heals everything, and lets it settle under load. It passes only if the
// merged trace passes TO conformance, every node's WAL passes rejoin
// safety, the run was not vacuous, the order grew again within
// liverun.RecoveryBound of the final heal, and no loadgen op failed hard
// — the checks chaos.Run gives every simulated campaign. The quorum-loss
// families (majority kill, total partition, cascading failure,
// split-rejoin) must also show delivery flatlined cluster-wide while no
// primary could exist (the primary-loss guard):
//
//	liverun -pgcsd ./bin/pgcsd -n 5 -rate 200 -window 30s -dir ./liverun-out
//	liverun -pgcsd ./bin/pgcsd -scenarios all -n 10 -window 12s -checkpoint-bytes 65536 -dir ./matrix-out
//
// Everything a run produces (configs, WALs, per-incarnation traces,
// daemon logs, metric snapshots, a replayable scenario.json per scenario
// under -dir/<kind>, and matrix.json) lands in -dir, which CI uploads as
// an artifact on failure. A failed scenario reruns deterministically, and
// shrinks, in the simulator: go run ./cmd/chaos -campaign <kind> -seed …
// -n … -window ….
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/liverun"
)

func main() {
	var (
		pgcsd    = flag.String("pgcsd", "", "path to the compiled pgcsd binary (required)")
		dir      = flag.String("dir", "liverun-out", "run directory for all artifacts")
		n        = flag.Int("n", 5, "cluster size")
		deltaMS  = flag.Int("delta-ms", 5, "the paper's delta, in milliseconds")
		seed     = flag.Int64("seed", 1, "seed of the first scenario (the next scenario gets the next seed)")
		basePort = flag.Int("base-port", 23600, "first of 2N consecutive localhost ports (keep below the kernel ephemeral range)")
		rate     = flag.Int("rate", 200, "target submissions per second")

		window    = flag.Duration("window", 12*time.Second, "fault-schedule window per scenario")
		settle    = flag.Duration("settle", 5*time.Second, "post-heal load interval per scenario")
		scenarios = flag.String("scenarios", "kill-waves", "comma-separated chaos campaigns, or 'all' for every process-level one")
		ckptBytes = flag.Int("checkpoint-bytes", 0, "WAL snapshot/compaction threshold per daemon (0 disables)")
	)
	flag.Parse()
	if *pgcsd == "" {
		flag.Usage()
		os.Exit(2)
	}

	var kinds []chaos.CampaignType // nil: every process-level campaign
	if *scenarios != "all" {
		for _, s := range strings.Split(*scenarios, ",") {
			k, err := chaos.ParseCampaign(strings.TrimSpace(s))
			if err != nil {
				fmt.Fprintf(os.Stderr, "bad -scenarios: %v\n", err)
				os.Exit(2)
			}
			kinds = append(kinds, k)
		}
	}
	res, err := liverun.RunMatrix(liverun.MatrixOptions{
		ScenarioOptions: liverun.ScenarioOptions{
			Dir:             *dir,
			PgcsdPath:       *pgcsd,
			N:               *n,
			Delta:           time.Duration(*deltaMS) * time.Millisecond,
			Seed:            *seed,
			BasePort:        *basePort,
			Rate:            *rate,
			Window:          *window,
			Settle:          *settle,
			CheckpointBytes: *ckptBytes,
			Logf:            log.Printf,
		},
		Kinds: kinds,
	})
	if res != nil {
		for _, sr := range res.Scenarios {
			printScenario(sr)
		}
		fmt.Printf("liverun: %d scenarios, %d failed\n", len(res.Scenarios), len(res.Failed))
	}
	if err != nil {
		log.Fatal(err)
	}
}

// printScenario prints one scenario's verdict line.
func printScenario(sr *liverun.ScenarioResult) {
	status := "PASS"
	if !sr.Passed() {
		status = "FAIL"
	}
	extra := ""
	if sr.Scenario.Kind.QuorumLoss() {
		extra = fmt.Sprintf("  loss_epochs=%d primary_loss=%t", len(sr.Scenario.LossEpochs), sr.PrimaryLossOK)
	}
	fmt.Printf("%-18s %s  deliveries=%d order=%d restarts=%d injected=%v  recovery_ok=%t recovery_ms=%d hard_failures=%d%s\n",
		sr.Scenario.Kind, status, sr.Entry.Deliveries, sr.OrderLen, sr.Restarts, sr.Injected,
		sr.RecoveryOK, sr.RecoveryMS, sr.HardFailures, extra)
}

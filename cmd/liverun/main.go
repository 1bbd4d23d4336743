// Command liverun orchestrates the live-cluster pipelines the CI live
// jobs run.
//
// A scenario is a chaos campaign (internal/chaos): the failures.Schedule
// chaos.Generate emits for (kind, -seed, -n, -window), executed against
// real processes — bad/good/amnesia processor statuses as
// SIGSTOP/SIGCONT/SIGKILL and respawns, a node's full inbound column as
// its listener pause. The thirteen process-level campaigns are exactly
// the executable ones; a campaign with a fault only the oracle can do (an
// ugly link, a pairwise cut) is refused with the offending event named.
//
// The default mode runs one scenario (kill-waves unless -scenarios names
// another): it boots N pgcsd daemons on localhost, drives them with the
// load generator while the schedule runs against the real processes, then
// merges every node's delivery logs and fails unless the merged trace
// passes TO conformance, every node's WAL passes rejoin safety, the run
// was not vacuous, and (quorum-loss campaigns apart) the load report
// clears the throughput floor and p99 latency bound
// (live.FloorRateFraction, live.FloorMaxP99):
//
//	liverun -pgcsd ./bin/pgcsd -n 5 -rate 200 -window 30s -dir ./liverun-out
//
// -matrix instead runs every process-level campaign (or those -scenarios
// lists): stop waves, kill waves, rolling and nested isolation, flapping
// and asymmetric links, leader kills, rolling restarts, mixed soak, and
// the quorum-loss families (majority kill, total partition, cascading
// failure, split-rejoin), each against a fresh cluster — quorum-loss
// scenarios prove the inverse of non-vacuity: delivery flatlined
// cluster-wide while no primary could exist (primary-loss guard) and
// resumed within -recovery-bound of the final heal (bounded recovery):
//
//	liverun -pgcsd ./bin/pgcsd -matrix -n 10 -window 12s -checkpoint-bytes 65536 -dir ./matrix-out
//
// Everything a run produces (configs, WALs, per-incarnation traces,
// daemon logs, metric snapshots, and a replayable scenario.json per
// scenario) lands in -dir, which CI uploads as an artifact on failure.
// A failed scenario reruns deterministically, and shrinks, in the
// simulator: go run ./cmd/chaos -campaign <kind> -seed … -n … -window ….
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/chaos"
	"repro/internal/experiments"
	"repro/internal/live"
)

func main() {
	var (
		pgcsd    = flag.String("pgcsd", "", "path to the compiled pgcsd binary (required)")
		dir      = flag.String("dir", "liverun-out", "run directory for all artifacts")
		n        = flag.Int("n", 5, "cluster size")
		deltaMS  = flag.Int("delta-ms", 5, "the paper's delta, in milliseconds")
		seed     = flag.Int64("seed", 1, "per-node simulator seed base")
		basePort = flag.Int("base-port", 23600, "first of 2N consecutive localhost ports (keep below the kernel ephemeral range)")
		rate     = flag.Int("rate", 200, "target submissions per second")

		matrix    = flag.Bool("matrix", false, "run every scenario kind instead of one")
		window    = flag.Duration("window", 12*time.Second, "fault-schedule window per scenario")
		settle    = flag.Duration("settle", 5*time.Second, "post-heal load interval per scenario")
		scenarios = flag.String("scenarios", "", "comma-separated chaos campaigns (default: kill-waves; with -matrix: every process-level one)")
		ckptBytes = flag.Int("checkpoint-bytes", 0, "WAL snapshot/compaction threshold per daemon (0 disables)")

		maxPending    = flag.Int("max-pending", 4096, "per-daemon accepted-but-undelivered submission bound (0 disables backpressure)")
		recoveryBound = flag.Duration("recovery-bound", 12*time.Second, "quorum-loss scenarios: delivery must resume this soon after the final heal")
		lossGrace     = flag.Duration("loss-grace", 750*time.Millisecond, "quorum-loss scenarios: per-epoch grace before the primary-loss flatline is enforced")
	)
	flag.Parse()
	if *pgcsd == "" {
		flag.Usage()
		os.Exit(2)
	}

	var kinds []chaos.CampaignType
	if *scenarios != "" {
		for _, s := range strings.Split(*scenarios, ",") {
			k, err := chaos.ParseCampaign(strings.TrimSpace(s))
			if err != nil {
				log.Fatal(err)
			}
			kinds = append(kinds, k)
		}
	}
	common := live.ScenarioOptions{
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
		MaxPending:      *maxPending,
		LossGrace:       *lossGrace,
		RecoveryBound:   *recoveryBound,
		Logf:            log.Printf,
	}

	if *matrix {
		res, err := live.RunMatrix(live.MatrixOptions{ScenarioOptions: common, Kinds: kinds})
		if res != nil {
			for _, sr := range res.Scenarios {
				printScenario(sr)
			}
			fmt.Printf("matrix: %d scenarios, %d failed\n", len(res.Scenarios), len(res.Failed))
		}
		if err != nil {
			log.Fatal(err)
		}
		return
	}

	kind := chaos.KillWaves
	switch len(kinds) {
	case 0:
	case 1:
		kind = kinds[0]
	default:
		log.Fatalf("liverun: %d scenarios named without -matrix", len(kinds))
	}
	res, err := live.RunScenario(kind, common)
	if res != nil {
		printScenario(res)
		lat := res.Entry.DeliveryLatency
		fmt.Printf("throughput: %.1f deliveries/sec (%d bcasts, %d deliveries)\n",
			res.Entry.DeliveriesPerSec, res.Entry.Bcasts, res.Entry.Deliveries)
		fmt.Printf("delivery latency: p50 %v  p99 %v  max %v  (%d samples)\n",
			time.Duration(lat.P50NS), time.Duration(lat.P99NS), time.Duration(lat.MaxNS), lat.Count)
		if err == nil && !kind.QuorumLoss() { // a quorum-loss schedule stalls delivery on purpose
			err = enforceFloors(res.Entry, *rate, *n)
		}
	}
	if err != nil {
		log.Fatal(err)
	}
}

// printScenario prints one scenario's verdict line.
func printScenario(sr *live.ScenarioResult) {
	status := "PASS"
	if !sr.Passed() {
		status = "FAIL"
	}
	extra := ""
	if sr.Scenario.Kind.QuorumLoss() {
		extra = fmt.Sprintf("  loss_epochs=%d primary_loss=%t recovery=%t recovery_ms=%d hard_failures=%d",
			len(sr.Scenario.LossEpochs), sr.PrimaryLossOK, sr.RecoveryOK, sr.RecoveryMS, sr.HardFailures)
	}
	fmt.Printf("%-18s %s  deliveries=%d order=%d restarts=%d injected=%v%s\n",
		sr.Scenario.Kind, status, sr.Entry.Deliveries, sr.OrderLen, sr.Restarts, sr.Injected, extra)
}

// enforceFloors applies the live perf floors to a completed scenario's
// load report: delivered throughput (summed over nodes) must be at least
// live.FloorRateFraction of the offered rate × n, and p99 submit→delivery
// latency must stay under live.FloorMaxP99. Deliberately loose (the job
// runs on shared CI runners and kills nodes mid-run): they catch
// order-of-magnitude regressions in the hot path, not benchmark the runner.
func enforceFloors(entry experiments.BenchEntry, rate, n int) error {
	minRate := live.FloorRateFraction * float64(rate) * float64(n)
	p99 := time.Duration(entry.DeliveryLatency.P99NS)
	fmt.Printf("floors: throughput %.1f/s (floor %.1f/s)  p99 %v (bound %v)\n",
		entry.DeliveriesPerSec, minRate, p99, live.FloorMaxP99)
	if entry.DeliveriesPerSec < minRate {
		return fmt.Errorf("floors: throughput %.1f deliveries/sec under the floor %.1f (%.2f x %d/s x %d nodes)",
			entry.DeliveriesPerSec, minRate, live.FloorRateFraction, rate, n)
	}
	if p99 > live.FloorMaxP99 {
		return fmt.Errorf("floors: p99 delivery latency %v over the bound %v", p99, live.FloorMaxP99)
	}
	return nil
}

// Command loadgen drives a live pgcsd cluster with a closed-loop
// broadcast workload and reports throughput and delivery-latency
// percentiles as a liverun.LoadReport JSON document.
//
//	loadgen -config cluster.json -rate 200 -duration 30s -out report.json
//
// Submissions round-robin across every node's client address at the
// target rate, with per-connection backpressure. Delivery latency is
// measured submit → delivery at the submitting node. A node that dies
// mid-run is redialed until it returns, so a kill/restart fault shows up
// in the latency tail, not as a generator failure. Each connection holds
// at most 256 undelivered values. Submissions the daemon bounces with
// BUSY (its -max-pending backpressure bound) are retried with jittered
// exponential backoff (100ms doubling up to 2s, 10 retries); an op
// undelivered after 5s is attributed as stalled rather than held against
// the closed loop, and a hard failure is only ever an exhausted retry
// budget.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/live"
	"repro/internal/liverun"
)

func main() {
	var (
		configPath = flag.String("config", "", "cluster config JSON (required)")
		rate       = flag.Int("rate", 100, "target submissions per second across the cluster")
		duration   = flag.Duration("duration", 30*time.Second, "submission window")
		drain      = flag.Duration("drain", 10*time.Second, "post-window wait for outstanding deliveries")
		runID      = flag.String("run-id", fmt.Sprintf("r%d", os.Getpid()), "value-uniquifying run id")
		out        = flag.String("out", "", "write the report JSON here (default stdout only)")
		quiet      = flag.Bool("quiet", false, "suppress progress logging")
	)
	flag.Parse()
	if *configPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	cfg, err := live.LoadConfig(*configPath)
	if err != nil {
		log.Fatal(err)
	}
	addrs := make([]string, len(cfg.Nodes))
	for i, n := range cfg.Nodes {
		addrs[i] = n.ClientAddr
	}
	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}

	report, err := liverun.RunLoad(liverun.LoadOptions{
		Addrs:    addrs,
		Rate:     *rate,
		Duration: *duration,
		Drain:    *drain,
		RunID:    *runID,
		Logf:     logf,
	})
	if err != nil {
		log.Fatal(err)
	}

	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if *out != "" {
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	lat := report.DeliveryLatency
	fmt.Printf("throughput: %.1f deliveries/sec (%d bcasts, %d deliveries in %v)\n",
		report.DeliveriesPerSec, report.Bcasts, report.Deliveries,
		time.Duration(report.ElapsedNS))
	fmt.Printf("delivery latency: p50 %v  p99 %v  max %v  (%d samples)\n",
		time.Duration(lat.P50NS), time.Duration(lat.P99NS), time.Duration(lat.MaxNS), lat.Count)
	fmt.Printf("backpressure: %d rejected, %d retries, %d stalled (%d recovered), %d hard failures\n",
		report.Counters["loadgen.rejected"], report.Counters["loadgen.retries"],
		report.Counters["loadgen.stalled_ops"], report.Counters["loadgen.stalled_recovered"],
		report.Counters["loadgen.hard_failures"])
	if *out == "" {
		os.Stdout.Write(append(b, '\n'))
	}
}

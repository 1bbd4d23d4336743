package live_test

import (
	"testing"
	"time"

	"repro/internal/live"
	"repro/internal/liverun"
)

// TestLoadgenAgainstInProcessCluster runs the load generator library
// against in-process engines, checking the report's accounting.
func TestLoadgenAgainstInProcessCluster(t *testing.T) {
	cfg := live.TestConfig(t, 3)
	for i := range cfg.Nodes {
		live.StartTestEngine(t, cfg, i, 0)
	}
	addrs := make([]string, 3)
	for i, n := range cfg.Nodes {
		addrs[i] = n.ClientAddr
	}
	rep, err := liverun.RunLoad(liverun.LoadOptions{
		Addrs:    addrs,
		Rate:     200,
		Duration: 2 * time.Second,
		Drain:    15 * time.Second,
		RunID:    "test",
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bcasts == 0 {
		t.Fatal("no submissions")
	}
	// No Seed was given, so the report names the default the run used.
	if rep.Seed != 1 {
		t.Errorf("report seed %d, want 1", rep.Seed)
	}
	if rep.ElapsedNS <= 0 {
		t.Errorf("report elapsed %dns, want > 0", rep.ElapsedNS)
	}
	// Every submission is eventually delivered at every node.
	if want := 3 * rep.Bcasts; rep.Deliveries != want {
		t.Errorf("observed %d delivery lines, want %d", rep.Deliveries, want)
	}
	if rep.Counters["loadgen.unresolved"] != 0 {
		t.Errorf("%d submissions never delivered at their origin", rep.Counters["loadgen.unresolved"])
	}
	if rep.DeliveryLatency.Count != rep.Bcasts {
		t.Errorf("latency samples %d, want %d", rep.DeliveryLatency.Count, rep.Bcasts)
	}
}

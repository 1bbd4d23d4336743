package experiments

import (
	"encoding/json"
	"testing"
)

// TestBenchBaseline pins the bench-baseline contract: four scenarios (E1,
// E2, E14, E16), each with live throughput, a sampled delivery-latency
// distribution, and the per-layer counters the baseline diff keys on.
func TestBenchBaseline(t *testing.T) {
	r := BenchBaseline(1)
	if len(r.Entries) != 4 {
		t.Fatalf("entries = %d, want 4", len(r.Entries))
	}
	want := []string{"E1", "E2", "E14", "E16"}
	for i, e := range r.Entries {
		if e.Experiment != want[i] {
			t.Errorf("entry %d experiment = %s, want %s", i, e.Experiment, want[i])
		}
		if e.VirtualNS <= 0 || e.Bcasts <= 0 || e.Deliveries <= 0 || e.DeliveriesPerSec <= 0 {
			t.Errorf("%s: dead scenario: %+v", e.Experiment, e)
		}
		if e.DeliveryLatency.Count <= 0 || e.DeliveryLatency.P99NS < e.DeliveryLatency.P50NS {
			t.Errorf("%s: delivery latency unsampled or inconsistent: %+v",
				e.Experiment, e.DeliveryLatency)
		}
		names := []string{"net.sent", "vs.installs", "vstoto.labels", "wal.records"}
		if e.Experiment == "E16" {
			// No membership churn in the burst scenario (the initial view
			// is sealed, not installed); what must show instead is the
			// batched WAL actually coalescing.
			names = []string{"net.sent", "vstoto.labels", "wal.records", "wal.batches"}
			if b, r := e.Counters["wal.batches"], e.Counters["wal.records"]; b >= r {
				t.Errorf("E16: wal.batches = %d of %d records: no coalescing", b, r)
			}
		}
		for _, name := range names {
			if e.Counters[name] <= 0 {
				t.Errorf("%s: counter %s = %d, want > 0", e.Experiment, name, e.Counters[name])
			}
		}
	}
	// The E14 scenario must actually exercise the crash/recovery path.
	e14 := r.Entries[2]
	if e14.Counters["stack.crashes"] != 1 || e14.Counters["stack.recoveries"] != 1 {
		t.Errorf("E14 crash/recovery counters: crashes=%d recoveries=%d, want 1/1",
			e14.Counters["stack.crashes"], e14.Counters["stack.recoveries"])
	}
	if e14.Counters["recovery.replay_records"] <= 0 {
		t.Errorf("E14 replayed no WAL records")
	}
	// Determinism: the report is a pure function of the seed.
	a, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(BenchBaseline(1))
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Error("bench baseline not deterministic for a fixed seed")
	}
}

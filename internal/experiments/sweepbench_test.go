package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// TestSweepPinMatchesCheckedIn regenerates the sweep pin and byte-compares
// it with the checked-in BENCH_sweep.json, so a change to what a campaign
// generates or what an obs snapshot contains fails here until the pin is
// regenerated (go run ./cmd/experiments -sweep-out BENCH_sweep.json).
func TestSweepPinMatchesCheckedIn(t *testing.T) {
	rep, err := SweepBench(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	want, err := os.ReadFile("../../BENCH_sweep.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCH_sweep.json is stale; regenerate with go run ./cmd/experiments -sweep-out BENCH_sweep.json\ngot:\n%s\nchecked in:\n%s", got, want)
	}
}

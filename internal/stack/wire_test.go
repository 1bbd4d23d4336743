package stack

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/props"
	"repro/internal/sim"
	"repro/internal/types"
)

// runScenario drives a fixed partition/heal scenario and returns the
// delivery sequence observed at node 0.
func runScenario(t *testing.T, wire bool) []Delivery {
	t.Helper()
	c := NewCluster(Options{Seed: 15, N: 5, Delta: time.Millisecond, Wire: wire, Log: &props.Log{}})
	c.Sim.After(30*time.Millisecond, func() {
		c.Oracle.Partition(c.Procs, types.NewProcSet(0, 1, 2), types.NewProcSet(3, 4))
	})
	for i := 0; i < 6; i++ {
		i := i
		c.Sim.After(time.Duration(10+20*i)*time.Millisecond, func() {
			c.Bcast(types.ProcID(i%5), types.Value(fmt.Sprintf("w%d", i)))
		})
	}
	c.Sim.After(400*time.Millisecond, func() { c.Oracle.Heal(c.Procs) })
	if err := c.Sim.Run(sim.Time(3 * time.Second)); err != nil {
		t.Fatal(err)
	}
	toConformance(t, c.Log)
	return c.Deliveries(0)
}

// TestWireModeMatchesInMemoryMode: serializing every payload through the
// binary codec at each network hop must not change behavior at all — the
// same seed yields the identical delivery sequence. This proves both that
// the codec is faithful and that the protocols never rely on shared
// in-memory state across a hop.
func TestWireModeMatchesInMemoryMode(t *testing.T) {
	mem := runScenario(t, false)
	wire := runScenario(t, true)
	if len(mem) != len(wire) {
		t.Fatalf("delivery counts differ: %d (memory) vs %d (wire)", len(mem), len(wire))
	}
	if len(mem) != 6 {
		t.Fatalf("scenario delivered %d of 6 values", len(mem))
	}
	for i := range mem {
		if mem[i].Value != wire[i].Value || mem[i].From != wire[i].From || mem[i].Time != wire[i].Time {
			t.Fatalf("deliveries diverge at %d: %+v vs %+v", i, mem[i], wire[i])
		}
	}
}

package stack

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/types"
)

// TestSubmittedDoesNotGrow: the latency bookkeeping for client
// submissions forgets a value once every node has released it, so a
// cluster that has run N and then 2N more values holds no more entries
// than after the first N.
func TestSubmittedDoesNotGrow(t *testing.T) {
	const n = 40
	c := NewCluster(Options{Seed: 3, N: 3, Delta: time.Millisecond, Obs: obs.New()})
	sent := 0
	run := func(values int) int {
		for i := 0; i < values; i++ {
			p := types.ProcID(sent % 3)
			if !c.Bcast(p, types.Value(fmt.Sprintf("v%d", sent))) {
				t.Fatalf("bcast %d refused", sent)
			}
			sent++
		}
		if err := c.Sim.Run(c.Sim.Now().Add(time.Second)); err != nil {
			t.Fatal(err)
		}
		for _, p := range c.Procs.Members() {
			if got := len(c.Deliveries(p)); got != sent {
				t.Fatalf("%v delivered %d of %d", p, got, sent)
			}
		}
		return len(c.submitted)
	}
	first := run(n)
	if second := run(2 * n); second > first {
		t.Fatalf("submitted holds %d entries after %d values, %d after %d", first, n, second, 3*n)
	}
	if first != 0 {
		t.Fatalf("submitted holds %d entries once every node released all %d values", first, n)
	}
}

package stack

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/failures"
	"repro/internal/props"
	"repro/internal/sim"
	"repro/internal/types"
)

// batchedOpts is the shipped data path on a λ-latency device.
func batchedOpts(seed int64, n int, lambda time.Duration) Options {
	return Options{Seed: seed, N: n, Delta: time.Millisecond, StorageLatency: lambda, Log: &props.Log{}}.Batched()
}

// TestGroupCommitMatchesLegacyOrder: the batched stack must deliver the
// byte-identical (From, Value) sequence the legacy lock-step stack
// delivers. A single-origin workload pins the total order to the
// submission order (TO is FIFO per origin), so the two runs are
// comparable value-for-value — batching may only change the timing.
func TestGroupCommitMatchesLegacyOrder(t *testing.T) {
	const want = 15
	run := func(opts Options) ([]Delivery, sim.Time) {
		c := NewCluster(opts)
		c.Sim.After(10*time.Millisecond, func() {
			for i := 0; i < want; i++ {
				c.Bcast(0, types.Value(fmt.Sprintf("v%d", i)))
			}
		})
		for len(c.Deliveries(0)) < want || len(c.Deliveries(types.ProcID(opts.N-1))) < want {
			if err := c.Sim.RunFor(20 * time.Millisecond); err != nil {
				t.Fatal(err)
			}
			if c.Sim.Now() > sim.Time(120*time.Second) {
				t.Fatal("burst never fully delivered")
			}
		}
		toConformance(t, c.Log)
		return c.Deliveries(0), c.Sim.Now()
	}

	const lambda = 2 * time.Millisecond
	legacy, slow := run(Options{Seed: 7, N: 3, Delta: time.Millisecond, StorageLatency: lambda, Log: &props.Log{}})
	batched, fast := run(batchedOpts(7, 3, lambda))
	if len(batched) != len(legacy) {
		t.Fatalf("batched delivered %d, legacy %d", len(batched), len(legacy))
	}
	for i := range legacy {
		if batched[i].Value != legacy[i].Value || batched[i].From != legacy[i].From {
			t.Fatalf("order diverges at %d: batched %v vs legacy %v", i, batched[i], legacy[i])
		}
	}
	if fast >= slow {
		t.Errorf("batched run was not faster: %v vs %v", fast, slow)
	}
}

// TestGroupCommitCrashRecovery: an amnesia crash mid-burst with the whole
// batched hot path armed — pipelined delivery records in flight, a batch
// write possibly torn — must still rejoin through the WAL with a
// conformant total order, and the surviving nodes must deliver every
// value submitted at them.
func TestGroupCommitCrashRecovery(t *testing.T) {
	c := NewCluster(batchedOpts(11, 3, 2*time.Millisecond))
	victim := types.ProcID(1)
	const total = 12
	// Submit only at the nodes that stay up: values buffered at the
	// victim would die with its memory, which is legal but not what this
	// test measures.
	for i := 0; i < total; i++ {
		i := i
		c.Sim.After(time.Duration(10+i*3)*time.Millisecond, func() {
			c.Bcast(types.ProcID((i%2)*2), types.Value(fmt.Sprintf("v%d", i)))
		})
	}
	// Crash while the burst (and its pipelined WAL writes) is in full
	// swing, heal shortly after.
	c.Sim.At(sim.Time(25*time.Millisecond), func() { c.Oracle.SetProc(victim, failures.Amnesia) })
	c.Sim.At(sim.Time(60*time.Millisecond), func() { c.Oracle.Heal(c.Procs) })
	if err := c.Sim.Run(sim.Time(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// The conformance checker is the real assertion: every node's
	// delivery sequence — including the victim's across incarnations —
	// embeds in one common total order.
	toConformance(t, c.Log)
	if c.Node(victim).Recoveries() < 1 {
		t.Fatal("victim never recovered")
	}
	for _, p := range []types.ProcID{0, 2} {
		if got := len(c.Deliveries(p)); got != total {
			t.Fatalf("node %v delivered %d, want %d", p, got, total)
		}
	}
	ref := c.Deliveries(0)
	other := c.Deliveries(2)
	for i := range ref {
		if other[i].Value != ref[i].Value || other[i].From != ref[i].From {
			t.Fatalf("survivors diverge at %d: %v vs %v", i, other[i], ref[i])
		}
	}
}

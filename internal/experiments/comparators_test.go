package experiments

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/props"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/types"
)

// runBurst submits a burst of k values through submit and returns how
// long it takes until every processor has delivered all k.
func runBurst(t *testing.T, submit func(i int), deliveries func(p types.ProcID) int,
	s *sim.Sim, k int, procs types.ProcSet) time.Duration {
	t.Helper()
	start := s.Now()
	for i := 0; i < k; i++ {
		submit(i)
	}
	deadline := s.Now().Add(30 * time.Second)
	for s.Now() < deadline {
		if err := s.RunFor(10 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
		done := true
		for _, p := range procs.Members() {
			if deliveries(p) < k {
				done = false
				break
			}
		}
		if done {
			return s.Now().Sub(start)
		}
	}
	t.Fatalf("burst not delivered everywhere within deadline")
	return 0
}

// TestBaselineDeliversTotalOrder: the persistence discipline must not
// break correctness — all replicas deliver the same sequence.
func TestBaselineDeliversTotalOrder(t *testing.T) {
	c := newBaseline(31, 3, time.Millisecond, 2*time.Millisecond)
	c.Sim.After(10*time.Millisecond, func() {
		for i := 0; i < 6; i++ {
			c.Bcast(types.ProcID(i%3), types.Value(fmt.Sprintf("b%d", i)))
		}
	})
	if err := c.Sim.Run(sim.Time(3 * time.Second)); err != nil {
		t.Fatal(err)
	}
	ref := c.Deliveries(0)
	if len(ref) != 6 {
		t.Fatalf("node 0 delivered %d values, want 6", len(ref))
	}
	for _, p := range c.Procs.Members()[1:] {
		ds := c.Deliveries(p)
		if len(ds) != len(ref) {
			t.Fatalf("%v delivered %d, want %d", p, len(ds), len(ref))
		}
		for i := range ds {
			if ds[i].Value != ref[i].Value {
				t.Fatalf("%v diverges at %d", p, i)
			}
		}
	}
	if got := c.StorageWrites(0); got == 0 {
		t.Error("baseline completed no stable writes")
	}
}

// TestStorageLatencyShape is a unit-scale slice of experiment E5: the
// baseline's delivery completion time grows with storage latency, and at
// a large storage latency it is strictly slower than the stack at λ = 0.
func TestStorageLatencyShape(t *testing.T) {
	const n, k = 3, 5
	delta := time.Millisecond

	stackCluster := stack.NewCluster(stack.Options{Seed: 41, N: n, Delta: delta})
	stackCluster.Sim.RunFor(20 * time.Millisecond)
	stackTime := runBurst(t,
		func(i int) { stackCluster.Bcast(types.ProcID(i%n), types.Value(fmt.Sprintf("v%d", i))) },
		func(p types.ProcID) int { return len(stackCluster.Deliveries(p)) },
		stackCluster.Sim, k, stackCluster.Procs)

	var prev time.Duration
	for _, storeLat := range []time.Duration{0, 5 * delta, 25 * delta} {
		c := newBaseline(41, n, delta, storeLat)
		c.Sim.RunFor(20 * time.Millisecond)
		bt := runBurst(t,
			func(i int) { c.Bcast(types.ProcID(i%n), types.Value(fmt.Sprintf("v%d", i))) },
			func(p types.ProcID) int { return len(c.Deliveries(p)) },
			c.Sim, k, c.Procs)
		if bt < prev {
			t.Errorf("baseline time %v at storage latency %v below %v at smaller latency (not monotone)",
				bt, storeLat, prev)
		}
		prev = bt
		if storeLat >= 25*delta && bt <= stackTime {
			t.Errorf("baseline with storage latency %v (%v) not slower than stack (%v)", storeLat, bt, stackTime)
		}
	}
}

// TestValueSeqMatchesOrderScan: the per-origin delivered counter numbers
// every delivery exactly as a scan of the order up to the delivered
// position does, and the trace it produces passes the TO checker.
func TestValueSeqMatchesOrderScan(t *testing.T) {
	const n, k = 4, 48
	c := newBaseline(43, n, time.Millisecond, time.Millisecond)
	ck := check.NewTOChecker()
	brcvs := 0
	c.Log.Sink = func(e props.Event) {
		switch e.Kind {
		case props.TOBcast:
			ck.Bcast(e.Value, e.P)
		case props.TOBrcv:
			brcvs++
			// The reference: count the origin's labels in the order up to
			// and including the position just delivered.
			proc := c.nodes[e.P].proc
			want := 0
			for _, l := range proc.Order[:proc.NextReport-1] {
				if l.Origin == e.From {
					want++
				}
			}
			if e.ValueSeq != want {
				t.Errorf("%v: brcv of %q from %v has ValueSeq %d, order scan %d", e.P, e.Value, e.From, e.ValueSeq, want)
			}
			if err := ck.Brcv(e.Value, e.From, e.P); err != nil {
				t.Errorf("TO conformance: %v", err)
			}
		}
	}
	c.Sim.RunFor(20 * time.Millisecond)
	runBurst(t,
		func(i int) { c.Bcast(types.ProcID(i*7%n), types.Value(fmt.Sprintf("v%d", i))) },
		func(p types.ProcID) int { return len(c.Deliveries(p)) },
		c.Sim, k, c.Procs)
	if brcvs != n*k {
		t.Errorf("%d brcv events, want %d", brcvs, n*k)
	}
}

func TestStablePrimaryDelivery(t *testing.T) {
	c := newPrimary(1, 3, time.Millisecond)
	c.Sim.After(10*time.Millisecond, func() {
		c.Bcast(0, "a")
		c.Bcast(2, "b")
	})
	if err := c.Sim.Run(sim.Time(500 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	for _, p := range c.Procs.Members() {
		ds := c.Deliveries(p)
		if len(ds) != 2 {
			t.Fatalf("%v delivered %d of 2", p, len(ds))
		}
	}
	// All nodes agree on the order.
	ref := c.Deliveries(0)
	for _, p := range c.Procs.Members() {
		for i, d := range c.Deliveries(p) {
			if d.Value != ref[i].Value {
				t.Fatalf("%v diverged at %d", p, i)
			}
		}
	}
	if err := c.CheckNoDivergence(); err != nil {
		t.Fatal(err)
	}
}

func TestMinoritySubmissionsLost(t *testing.T) {
	c := newPrimary(3, 5, time.Millisecond)
	c.Sim.After(20*time.Millisecond, func() {
		c.Oracle.Partition(c.Procs, types.NewProcSet(0, 1, 2), types.NewProcSet(3, 4))
	})
	c.Sim.After(200*time.Millisecond, func() {
		c.Bcast(0, "majority-side")
		c.Bcast(3, "minority-side")
	})
	c.Sim.After(600*time.Millisecond, func() { c.Oracle.Heal(c.Procs) })
	if err := c.Sim.Run(sim.Time(3 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckNoDivergence(); err != nil {
		t.Fatal(err)
	}
	// The minority value is gone everywhere: no reconciliation exists.
	for _, p := range c.Procs.Members() {
		for _, d := range c.Deliveries(p) {
			if d.Value == "minority-side" {
				t.Fatalf("minority submission delivered at %v — primary model should lose it", p)
			}
		}
	}
	// The majority value reached the majority side at least.
	found := false
	for _, d := range c.Deliveries(0) {
		if d.Value == "majority-side" {
			found = true
		}
	}
	if !found {
		t.Fatal("majority-side value not delivered on the quorum side")
	}
}

func TestNoDivergenceUnderChurn(t *testing.T) {
	c := newPrimary(5, 4, time.Millisecond)
	for i := 0; i < 12; i++ {
		i := i
		c.Sim.After(time.Duration(10+25*i)*time.Millisecond, func() {
			c.Bcast(types.ProcID(i%4), types.Value(fmt.Sprintf("c%d", i)))
		})
	}
	c.Sim.After(100*time.Millisecond, func() {
		c.Oracle.Partition(c.Procs, types.NewProcSet(0, 1, 2), types.NewProcSet(3))
	})
	c.Sim.After(250*time.Millisecond, func() { c.Oracle.Heal(c.Procs) })
	c.Sim.After(380*time.Millisecond, func() {
		c.Oracle.Partition(c.Procs, types.NewProcSet(1, 2, 3), types.NewProcSet(0))
	})
	c.Sim.After(550*time.Millisecond, func() { c.Oracle.Heal(c.Procs) })
	if err := c.Sim.Run(sim.Time(3 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckNoDivergence(); err != nil {
		t.Fatal(err)
	}
	if len(c.Deliveries(1)) == 0 {
		t.Fatal("nothing delivered under churn")
	}
}

// TestDivergenceCheckerDetectsForgedOrder: swapping two common deliveries
// at one node must be flagged (the checker is not vacuous).
func TestDivergenceCheckerDetectsForgedOrder(t *testing.T) {
	c := newPrimary(7, 3, time.Millisecond)
	c.Sim.After(10*time.Millisecond, func() {
		c.Bcast(0, "x")
		c.Bcast(1, "y")
	})
	if err := c.Sim.Run(sim.Time(500 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	ds := c.deliveries[2]
	if len(ds) < 2 {
		t.Fatalf("need 2 deliveries, have %d", len(ds))
	}
	ds[0], ds[1] = ds[1], ds[0]
	if err := c.CheckNoDivergence(); err == nil {
		t.Fatal("forged divergence not detected")
	}
}

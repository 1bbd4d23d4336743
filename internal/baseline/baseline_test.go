package baseline

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

// latencyOf measures mean bcast→last-delivery latency for a burst of k
// values on a running cluster with per-value submit callback.
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
	c := NewCluster(Options{Seed: 31, N: 3, Delta: time.Millisecond, StorageLatency: 2 * time.Millisecond})
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

// TestStorageLatencyShape is the unit-scale version of experiment E5: the
// baseline's delivery completion time grows with storage latency, while
// the plain stack's does not depend on it at all (it has no storage), and
// for large storage latency the baseline is strictly slower.
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
		c := NewCluster(Options{Seed: 41, N: n, Delta: delta, StorageLatency: storeLat})
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
	c := NewCluster(Options{Seed: 43, N: n, Delta: time.Millisecond, StorageLatency: time.Millisecond})
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

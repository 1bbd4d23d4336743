package stack

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/props"
	"repro/internal/sim"
	"repro/internal/types"
)

// toConformance replays the recorded TO events through the TO-machine
// trace checker. The cluster must have been built with Options.Log: a
// missing or empty trace fails rather than passing vacuously.
func toConformance(t *testing.T, log *props.Log) *check.TOChecker {
	t.Helper()
	if log == nil || log.Len() == 0 {
		t.Fatal("no trace recorded: build the cluster with Options.Log")
	}
	ck := check.NewTOChecker()
	for _, e := range log.Events {
		switch e.Kind {
		case props.TOBcast:
			ck.Bcast(e.Value, e.P)
		case props.TOBrcv:
			if err := ck.Brcv(e.Value, e.From, e.P); err != nil {
				t.Fatalf("TO conformance: %v\nevent: %v", err, e)
			}
		}
	}
	return ck
}

// TestStableTotalOrder: with everyone good, values submitted at different
// nodes are delivered to every node in one common total order, respecting
// per-sender submission order.
func TestStableTotalOrder(t *testing.T) {
	c := NewCluster(Options{Seed: 3, N: 4, Delta: time.Millisecond, Log: &props.Log{}})
	for i := 0; i < 5; i++ {
		i := i
		c.Sim.After(time.Duration(10+i*7)*time.Millisecond, func() {
			for _, p := range c.Procs.Members() {
				c.Bcast(p, types.Value(fmt.Sprintf("v%d-%v", i, p)))
			}
		})
	}
	if err := c.Sim.Run(sim.Time(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	ck := toConformance(t, c.Log)
	want := 5 * c.Procs.Size()
	if got := ck.OrderLen(); got != want {
		t.Fatalf("total order has %d entries, want %d", got, want)
	}
	for _, p := range c.Procs.Members() {
		if got := len(c.Deliveries(p)); got != want {
			t.Errorf("%v delivered %d values, want %d", p, got, want)
		}
	}
	// All nodes saw the identical sequence.
	ref := c.Deliveries(c.Procs.Members()[0])
	for _, p := range c.Procs.Members()[1:] {
		ds := c.Deliveries(p)
		for i := range ref {
			if ds[i].Value != ref[i].Value || ds[i].From != ref[i].From {
				t.Fatalf("%v diverges at %d: %v vs %v", p, i, ds[i], ref[i])
			}
		}
	}
}

// TestPartitionMinorityStalls: in a partition, the quorum side keeps
// confirming while the minority side delivers nothing new; after healing,
// the minority catches up with the identical order (no divergence).
func TestPartitionMinorityStalls(t *testing.T) {
	c := NewCluster(Options{Seed: 5, N: 5, Delta: time.Millisecond, Log: &props.Log{}})
	majority := types.NewProcSet(0, 1, 2)
	minority := types.NewProcSet(3, 4)

	c.Sim.After(30*time.Millisecond, func() {
		c.Oracle.Partition(c.Procs, majority, minority)
	})
	// Both sides submit during the partition.
	c.Sim.After(150*time.Millisecond, func() {
		c.Bcast(0, "from-majority")
		c.Bcast(3, "from-minority")
	})
	var majDelivered, minDelivered int
	c.Sim.After(600*time.Millisecond, func() {
		majDelivered = len(c.Deliveries(0))
		minDelivered = len(c.Deliveries(3))
	})
	var heal sim.Time
	c.Sim.After(700*time.Millisecond, func() {
		c.Oracle.Heal(c.Procs)
		heal = c.Sim.Now()
	})
	if err := c.Sim.Run(sim.Time(3 * time.Second)); err != nil {
		t.Fatal(err)
	}
	toConformance(t, c.Log)

	if majDelivered == 0 {
		t.Errorf("majority side delivered nothing during the partition")
	}
	if minDelivered != 0 {
		t.Errorf("minority side delivered %d values during the partition; want 0", minDelivered)
	}
	_ = heal
	// After healing, everyone has both values, in the same order.
	for _, p := range c.Procs.Members() {
		ds := c.Deliveries(p)
		if len(ds) != 2 {
			t.Fatalf("%v delivered %d values after heal, want 2", p, len(ds))
		}
	}
	first := c.Deliveries(0)[0].Value
	for _, p := range c.Procs.Members() {
		if c.Deliveries(p)[0].Value != first {
			t.Fatalf("order diverged after heal")
		}
	}
}

// TestTOPropertyAfterPartition is the executable Theorem 7.2: after the
// system stabilizes to an isolated quorum component Q, the TO service
// satisfies TO-property(b+d, d, Q) with the Section 8 analytic parameters.
func TestTOPropertyAfterPartition(t *testing.T) {
	const n = 5
	delta := time.Millisecond
	c := NewCluster(Options{Seed: 9, N: n, Delta: delta, Log: &props.Log{}})
	q := types.NewProcSet(0, 1, 2)

	var cut sim.Time
	c.Sim.After(40*time.Millisecond, func() {
		c.Oracle.Isolate(q, c.Procs)
		cut = c.Sim.Now()
	})
	// Traffic from inside Q both before and after stabilization.
	c.Sim.After(20*time.Millisecond, func() { c.Bcast(1, "pre-cut") })
	for i := 0; i < 8; i++ {
		i := i
		c.Sim.After(time.Duration(100+20*i)*time.Millisecond, func() {
			c.Bcast(types.ProcID(i%3), types.Value(fmt.Sprintf("post-%d", i)))
		})
	}
	if err := c.Sim.Run(sim.Time(3 * time.Second)); err != nil {
		t.Fatal(err)
	}
	toConformance(t, c.Log)

	b := c.Cfg.AnalyticB(q.Size())
	d := c.Cfg.AnalyticD(q.Size())
	if err := props.CheckVSProperty(c.Log, q, cut, b, d); err != nil {
		t.Errorf("VS-property(b,d,Q) failed: %v", err)
	}
	// Theorem 7.2: TO(b+d, d, Q).
	if err := props.CheckTOProperty(c.Log, q, cut, b+d, d); err != nil {
		t.Errorf("TO-property(b+d,d,Q) failed: %v", err)
	}
	if m := props.MeasureTO(c.Log, q, cut, b+d); m.ValuesMeasured < 9 {
		t.Errorf("only %d values entered the TO measurement; want ≥ 9 (vacuity guard)", m.ValuesMeasured)
	}
}

// TestNonQuorumUniverseNeverConfirms: with a quorum system nothing can
// satisfy, no value is ever delivered (only primary views confirm).
func TestNonQuorumUniverseNeverConfirms(t *testing.T) {
	full := types.RangeProcSet(3)
	qs, err := types.NewExplicitQuorums(types.NewProcSet(0, 1, 2, 3)) // unattainable: p3 doesn't exist
	if err != nil {
		t.Fatal(err)
	}
	c := NewCluster(Options{Seed: 7, N: 3, Delta: time.Millisecond, Quorums: qs})
	c.Sim.After(10*time.Millisecond, func() { c.Bcast(0, "stuck") })
	if err := c.Sim.Run(sim.Time(500 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	for _, p := range full.Members() {
		if got := len(c.Deliveries(p)); got != 0 {
			t.Errorf("%v delivered %d values without any primary view", p, got)
		}
	}
}

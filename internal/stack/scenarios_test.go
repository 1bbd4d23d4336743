package stack

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/failures"
	"repro/internal/props"
	"repro/internal/sim"
	"repro/internal/types"
)

// TestUglyLinksStillSafe: degrading links to ugly (lossy, slow) may stall
// progress and churn views, but can never violate the total order.
func TestUglyLinksStillSafe(t *testing.T) {
	t.Logf("seed 21")
	c := NewCluster(Options{Seed: 21, N: 4, Delta: time.Millisecond, Log: &props.Log{}})
	rng := rand.New(rand.NewSource(21))
	c.Sim.After(20*time.Millisecond, func() {
		for i := 0; i < 6; i++ {
			from := types.ProcID(rng.Intn(4))
			to := types.ProcID(rng.Intn(4))
			if from != to {
				c.Oracle.SetChannel(from, to, failures.Ugly)
			}
		}
	})
	for i := 0; i < 10; i++ {
		i := i
		c.Sim.After(time.Duration(10+15*i)*time.Millisecond, func() {
			c.Bcast(types.ProcID(i%4), types.Value(fmt.Sprintf("u%d", i)))
		})
	}
	c.Sim.After(800*time.Millisecond, func() { c.Oracle.Heal(c.Procs) })
	if err := c.Sim.Run(sim.Time(4 * time.Second)); err != nil {
		t.Fatal(err)
	}
	ck := toConformance(t, c.Log)
	// After healing and a quiet tail, everything is delivered everywhere.
	for _, p := range c.Procs.Members() {
		if got := len(c.Deliveries(p)); got != 10 {
			t.Errorf("%v delivered %d of 10 after heal", p, got)
		}
	}
	if ck.OrderLen() != 10 {
		t.Errorf("order has %d entries", ck.OrderLen())
	}
}

// TestRepeatedPartitionCycles: five partition/heal cycles with traffic in
// each epoch; order stays consistent and everything converges at the end.
func TestRepeatedPartitionCycles(t *testing.T) {
	c := NewCluster(Options{Seed: 23, N: 5, Delta: time.Millisecond, Log: &props.Log{}})
	splits := [][2]types.ProcSet{
		{types.NewProcSet(0, 1, 2), types.NewProcSet(3, 4)},
		{types.NewProcSet(0, 4), types.NewProcSet(1, 2, 3)},
		{types.NewProcSet(2, 3, 4), types.NewProcSet(0, 1)},
		{types.NewProcSet(0, 2, 4), types.NewProcSet(1, 3)},
		{types.NewProcSet(1, 2, 3, 4), types.NewProcSet(0)},
	}
	sent := 0
	for cycle, split := range splits {
		cycle, split := cycle, split
		base := time.Duration(cycle) * 400 * time.Millisecond
		c.Sim.After(base+50*time.Millisecond, func() {
			c.Oracle.Partition(c.Procs, split[0], split[1])
		})
		for i := 0; i < 3; i++ {
			i := i
			sent++
			c.Sim.After(base+time.Duration(120+40*i)*time.Millisecond, func() {
				p := split[0].Members()[i%split[0].Size()]
				c.Bcast(p, types.Value(fmt.Sprintf("c%d-%d", cycle, i)))
			})
		}
		c.Sim.After(base+300*time.Millisecond, func() { c.Oracle.Heal(c.Procs) })
	}
	if err := c.Sim.Run(sim.Time(6 * time.Second)); err != nil {
		t.Fatal(err)
	}
	toConformance(t, c.Log)
	want := sent
	for _, p := range c.Procs.Members() {
		if got := len(c.Deliveries(p)); got != want {
			t.Errorf("%v delivered %d of %d", p, got, want)
		}
	}
}

// TestJitterMode: random per-packet delays within (0, δ] change timing but
// never correctness.
func TestJitterMode(t *testing.T) {
	c := NewCluster(Options{Seed: 25, N: 4, Delta: time.Millisecond, Jitter: true, Log: &props.Log{}})
	c.Sim.After(10*time.Millisecond, func() {
		c.Oracle.Partition(c.Procs, types.NewProcSet(0, 1, 2), types.NewProcSet(3))
	})
	for i := 0; i < 5; i++ {
		i := i
		c.Sim.After(time.Duration(30+20*i)*time.Millisecond, func() {
			c.Bcast(types.ProcID(i%3), types.Value(fmt.Sprintf("j%d", i)))
		})
	}
	c.Sim.After(400*time.Millisecond, func() { c.Oracle.Heal(c.Procs) })
	if err := c.Sim.Run(sim.Time(3 * time.Second)); err != nil {
		t.Fatal(err)
	}
	toConformance(t, c.Log)
	for _, p := range c.Procs.Members() {
		if got := len(c.Deliveries(p)); got != 5 {
			t.Errorf("%v delivered %d of 5", p, got)
		}
	}
}

// TestLateJoiner: a processor outside the initial group (P0) is pulled in
// by probing and then participates fully.
func TestLateJoiner(t *testing.T) {
	c := NewCluster(Options{Seed: 27, N: 4, P0Size: 3, Delta: time.Millisecond, Log: &props.Log{}})
	c.Sim.After(20*time.Millisecond, func() { c.Bcast(0, "before-join") })
	if err := c.Sim.Run(sim.Time(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	v, ok := c.Node(3).VS().View()
	if !ok || !v.Set.Contains(3) || v.Set.Size() != 4 {
		t.Fatalf("late joiner's view: %v %t", v, ok)
	}
	// The pre-join value was recovered to the joiner through state exchange.
	if got := len(c.Deliveries(3)); got != 1 {
		t.Fatalf("late joiner delivered %d of 1", got)
	}
	// And it can broadcast.
	c.Bcast(3, "after-join")
	if err := c.Sim.Run(sim.Time(3 * time.Second)); err != nil {
		t.Fatal(err)
	}
	toConformance(t, c.Log)
	for _, p := range c.Procs.Members() {
		if got := len(c.Deliveries(p)); got != 2 {
			t.Errorf("%v delivered %d of 2", p, got)
		}
	}
}

// TestAllButOneCrash: with only one good processor there is no quorum;
// nothing confirms until the others recover.
func TestAllButOneCrash(t *testing.T) {
	c := NewCluster(Options{Seed: 29, N: 3, Delta: time.Millisecond, Log: &props.Log{}})
	c.Sim.After(20*time.Millisecond, func() {
		for _, p := range []types.ProcID{1, 2} {
			c.Oracle.SetProc(p, failures.Bad)
			for _, q := range c.Procs.Members() {
				if q != p {
					c.Oracle.SetChannel(p, q, failures.Bad)
					c.Oracle.SetChannel(q, p, failures.Bad)
				}
			}
		}
	})
	c.Sim.After(100*time.Millisecond, func() { c.Bcast(0, "lonely") })
	var atRecovery int
	c.Sim.After(600*time.Millisecond, func() {
		atRecovery = len(c.Deliveries(0))
		c.Oracle.Heal(c.Procs)
	})
	if err := c.Sim.Run(sim.Time(3 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if atRecovery != 0 {
		t.Errorf("lone survivor delivered %d values without a quorum", atRecovery)
	}
	toConformance(t, c.Log)
	for _, p := range c.Procs.Members() {
		if got := len(c.Deliveries(p)); got != 1 {
			t.Errorf("%v delivered %d of 1 after recovery", p, got)
		}
	}
}

// TestVSPropertyBothSidesOfPartition evaluates VS-property for the
// non-quorum side as well: the paper's property is quorum-agnostic — even
// a minority component must converge on a view of exactly its members.
func TestVSPropertyBothSidesOfPartition(t *testing.T) {
	c := NewCluster(Options{Seed: 31, N: 5, Delta: time.Millisecond, Log: &props.Log{}})
	minority := types.NewProcSet(3, 4)
	majority := types.NewProcSet(0, 1, 2)
	var cut sim.Time
	c.Sim.After(40*time.Millisecond, func() {
		c.Oracle.Partition(c.Procs, majority, minority)
		cut = c.Sim.Now()
	})
	if err := c.Sim.Run(sim.Time(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	for _, q := range []types.ProcSet{majority, minority} {
		m := props.MeasureVS(c.Log, q, cut)
		if !m.Converged {
			t.Errorf("component %v did not converge", q)
			continue
		}
		if b := c.Cfg.AnalyticB(q.Size()); m.LPrime > b {
			t.Errorf("component %v stabilized in %v > b %v", q, m.LPrime, b)
		}
	}
}

package stack

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/failures"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/types"
)

// TestEstablishLogReplaysToOrder: an establishment record logs only the
// order past the prefix it keeps, which is right only if proc.Order always
// equals what the node's log replays to. Under rotating 3|2 partitions,
// heals and one amnesia restart, every 5 ms each node whose log has nothing
// in flight must replay to exactly its order.
func TestEstablishLogReplaysToOrder(t *testing.T) {
	const (
		n      = 5
		cycle  = 200 * time.Millisecond
		cycles = 7
		victim = types.ProcID(2)
	)
	c := NewCluster(Options{Seed: 5, N: n, Delta: time.Millisecond, Jitter: true, StorageLatency: time.Millisecond / 4})
	end := sim.Time(cycles * cycle)
	for i := 0; sim.Time(10*time.Millisecond+time.Duration(i)*2*time.Millisecond) < end; i++ {
		v := types.Value(fmt.Sprintf("v%d", i))
		p := types.ProcID(i % n)
		c.Sim.At(sim.Time(10*time.Millisecond+time.Duration(i)*2*time.Millisecond), func() { c.Bcast(p, v) })
	}
	for k := 0; k < cycles; k++ {
		t0 := time.Duration(k) * cycle
		fault, heal := sim.Time(t0+20*time.Millisecond), sim.Time(t0+120*time.Millisecond)
		if k == 3 {
			c.Sim.At(fault, func() { c.Oracle.SetProc(victim, failures.Amnesia) })
		} else {
			a, b := types.ProcID(k%n), types.ProcID((k+1)%n)
			rest := c.Procs.Without(a).Without(b)
			c.Sim.At(fault, func() { c.Oracle.Partition(c.Procs, rest, types.NewProcSet(a, b)) })
		}
		c.Sim.At(heal, func() { c.Oracle.Heal(c.Procs) })
	}
	checked := make(map[types.ProcID]int)
	for at := 5 * time.Millisecond; sim.Time(at) <= end; at += 5 * time.Millisecond {
		c.Sim.At(sim.Time(at), func() {
			for _, p := range c.Procs.Members() {
				node := c.Node(p)
				st := node.WAL().Storage()
				if c.Oracle.Proc(p) == failures.Amnesia || node.WAL().EndOffset() != st.Base()+st.Size() {
					continue // wiped, or records still in flight
				}
				got := recovery.Replay(st.Contents())
				if got.Truncated != "" || !slices.Equal(got.Order, node.Proc().Order) {
					t.Fatalf("%v at %v: log replays to %d labels (truncated %q), proc.Order holds %d",
						p, c.Sim.Now(), len(got.Order), got.Truncated, len(node.Proc().Order))
				}
				checked[p]++
			}
		})
	}
	if err := c.Sim.Run(end); err != nil {
		t.Fatal(err)
	}
	if c.Node(victim).Recoveries() != 1 {
		t.Fatalf("victim recovered %d times, want 1", c.Node(victim).Recoveries())
	}
	t.Logf("checks per node: %v", checked)
	for _, p := range c.Procs.Members() {
		if checked[p] < cycles*10 {
			t.Errorf("%v checked only %d times", p, checked[p])
		}
		if len(c.Node(p).Proc().Order) < 500 {
			t.Errorf("%v ordered only %d values", p, len(c.Node(p).Proc().Order))
		}
	}
}

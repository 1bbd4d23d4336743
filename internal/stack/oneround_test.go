package stack

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/props"
	"repro/internal/sim"
	"repro/internal/types"
)

// TestOneRoundMembershipEndToEnd: the footnote-7 one-round membership
// variant must provide the same TO guarantees (the VS interface is
// unchanged); only stabilization timing differs.
func TestOneRoundMembershipEndToEnd(t *testing.T) {
	c := NewCluster(Options{Seed: 33, N: 4, Delta: time.Millisecond, OneRound: true, Log: &props.Log{}})
	c.Sim.After(30*time.Millisecond, func() {
		c.Oracle.Partition(c.Procs, types.NewProcSet(0, 1, 2), types.NewProcSet(3))
	})
	for i := 0; i < 6; i++ {
		i := i
		c.Sim.After(time.Duration(10+30*i)*time.Millisecond, func() {
			c.Bcast(types.ProcID(i%3), types.Value(fmt.Sprintf("o%d", i)))
		})
	}
	c.Sim.After(500*time.Millisecond, func() { c.Oracle.Heal(c.Procs) })
	if err := c.Sim.Run(sim.Time(4 * time.Second)); err != nil {
		t.Fatal(err)
	}
	toConformance(t, c.Log)
	for _, p := range c.Procs.Members() {
		if got := len(c.Deliveries(p)); got != 6 {
			t.Errorf("%v delivered %d of 6", p, got)
		}
	}
}

package experiments

import (
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/types"
)

// E11 is an engineering ablation of the token representation: the naive
// token carries the view's entire message history, so its size grows
// linearly with traffic; compacting out entries that every member has
// already delivered bounds it by the in-flight window. Correctness is
// unchanged (the soak and conformance suites run with compaction on); this
// table shows the size behavior that makes compaction necessary for long-
// lived views.
func E11(seed int64) *Table {
	t := &Table{
		ID:      "E11",
		Title:   "Ablation: token compaction vs full-history token",
		Claim:   "without compaction the token grows with the view's history; with it, size stays bounded by the in-flight window",
		Columns: []string{"compaction", "msgs sent", "max token entries", "delivered@p0"},
	}
	for _, compaction := range []bool{true, false} {
		c := stack.NewCluster(stack.Options{Seed: seed, N: 4, Delta: time.Millisecond, NoTokenCompaction: !compaction})
		msgs := 0
		var load func()
		load = func() {
			if c.Sim.Now() > sim.Time(4*time.Second) {
				return
			}
			defer c.Sim.After(10*time.Millisecond, load)
			msgs++
			c.Bcast(types.ProcID(msgs%4), types.Value(fmt.Sprintf("t%d", msgs)))
		}
		c.Sim.After(10*time.Millisecond, load)
		must(c.Sim.Run(sim.Time(5 * time.Second)))
		maxTok := 0
		for _, p := range c.Procs.Members() {
			if m := c.Node(p).VS().Stats().MaxTokenEntries; m > maxTok {
				maxTok = m
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%t", compaction), fmt.Sprint(msgs), fmt.Sprint(maxTok),
			fmt.Sprint(len(c.Deliveries(0))),
		})
		if compaction && maxTok > 100 {
			t.Failures = append(t.Failures,
				fmt.Sprintf("compacted token reached %d entries — not bounded by the in-flight window", maxTok))
		}
		if !compaction && maxTok < msgs/2 {
			t.Failures = append(t.Failures,
				fmt.Sprintf("uncompacted token max %d did not grow with history (%d msgs)", maxTok, msgs))
		}
	}
	return t
}

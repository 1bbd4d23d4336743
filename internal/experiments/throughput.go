package experiments

import (
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/types"
)

// E16 measures what the stack's batched hot path buys against a protocol
// that pays stable storage per message: WAL group commit (one covering
// storage write per batch of records instead of one λ each), delivery-
// record pipelining, and demand-driven token rounds. Both sides take the
// same single-origin burst; with one submitter TO's per-origin FIFO pins
// the whole order, so every node of either run must deliver exactly the
// submission order.
//
// E5's stable-storage baseline writes each submission before it enters
// the protocol and each confirmed position before it is released, so at
// λ = 5ms a 400-value burst costs it ≥ 2 virtual seconds in storage stalls
// at the origin alone. The stack overlaps those writes behind one
// in-flight covering write and keeps token rounds back to back, so its
// throughput must be at least 3× the baseline's.
func E16(seed int64) *Table {
	t := &Table{
		ID:      "E16",
		Title:   "group commit + pipelined delivery: throughput vs per-message stable storage",
		Claim:   "the batched stack delivers >=3x the stable-storage baseline's msgs/sec at lambda=5ms, in submission order at every node",
		Columns: []string{"protocol", "values", "virtual elapsed", "deliveries/sec"},
	}

	const (
		n      = 3
		values = 400
		lambda = 5 * time.Millisecond
	)
	delta := time.Millisecond
	origin := types.ProcID(0)

	// run boots a cluster, submits the burst at origin in one instant,
	// runs until every node has delivered it, and returns the throughput.
	run := func(name string, s *sim.Sim, bcast func(types.ProcID, types.Value), deliveries func(types.ProcID) []stack.Delivery) float64 {
		must(s.RunFor(30 * time.Millisecond))
		start := s.Now()
		for i := 0; i < values; i++ {
			bcast(origin, types.Value(fmt.Sprintf("v%d", i)))
		}
		if !runUntil(s, 10*time.Millisecond, sim.Time(300*time.Second), func() bool { return allDelivered(n, values, deliveries) }) {
			panic("E16: burst never fully delivered")
		}
		elapsed := time.Duration(s.Now() - start)
		rate := float64(values) / elapsed.Seconds()
		t.Rows = append(t.Rows, []string{
			name, fmt.Sprint(values), elapsed.Round(time.Millisecond).String(), fmt.Sprintf("%.0f", rate),
		})
		for p := types.ProcID(0); p < n; p++ {
			got := deliveries(p)
			for i, d := range got {
				if v := types.Value(fmt.Sprintf("v%d", i)); d.From != origin || d.Value != v {
					t.Failures = append(t.Failures, fmt.Sprintf(
						"E16: %s node %v delivery %d is %q from %v, want %q from %v", name, p, i, d.Value, d.From, v, origin))
					break
				}
			}
			if len(got) != values {
				t.Failures = append(t.Failures, fmt.Sprintf("E16: %s node %v delivered %d values, want %d", name, p, len(got), values))
			}
		}
		return rate
	}

	b := newBaseline(seed, n, delta, lambda)
	base := run("baseline", b.Sim, b.Bcast, b.Deliveries)
	c := stack.NewCluster(stack.Options{Seed: seed, N: n, Delta: delta, StorageLatency: lambda})
	fast := run("VStoTO stack", c.Sim, func(p types.ProcID, v types.Value) { c.Bcast(p, v) }, c.Deliveries)

	speedup := fast / base
	if speedup < 3 {
		t.Failures = append(t.Failures, fmt.Sprintf(
			"E16: stack throughput only %.2fx the baseline's (floor 3x)", speedup))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("the stack delivers %.1fx the baseline's msgs/sec at lambda=%v", speedup, lambda),
		"both runs deliver v0 … v399 in submission order at every node")
	return t
}

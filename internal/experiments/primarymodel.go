package experiments

import (
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/types"
)

// E12 measures the paper's central design motivation: partitionable
// semantics with reconciliation (VStoTO) versus the classic
// primary-partition model over the same VS service. Both run the identical
// partition/heal scenario with submissions on both sides; the table counts
// how much of the submitted work each model ultimately delivers at every
// processor.
func E12(seed int64) *Table {
	t := &Table{
		ID:      "E12",
		Title:   "Partitionable VStoTO vs primary-partition model",
		Claim:   "the primary model loses minority submissions and leaves rejoining processors with gaps; VStoTO delivers every value everywhere after stabilization (the paper's point 4 of Section 1)",
		Columns: []string{"model", "submitted", "delivered everywhere", "min node coverage", "lost"},
	}
	const n = 5
	delta := time.Millisecond
	majority := types.NewProcSet(0, 1, 2)
	minority := types.NewProcSet(3, 4)

	type result struct {
		submitted, everywhere, lost int
		minCoverage                 int
	}
	scenario := func(bcast func(types.ProcID, types.Value), run func(sim.Time) error,
		counts func() map[types.ProcID]map[types.Value]bool, partition, heal func()) result {
		submitted := 0
		submit := func(p types.ProcID) {
			submitted++
			bcast(p, types.Value(fmt.Sprintf("w%d", submitted)))
		}
		// Phase 1: stable traffic.
		for _, p := range []types.ProcID{0, 3} {
			submit(p)
		}
		must(run(sim.Time(200 * time.Millisecond)))
		// Phase 2: partition; both sides submit.
		partition()
		must(run(sim.Time(400 * time.Millisecond)))
		for _, p := range []types.ProcID{0, 1, 3, 4} {
			submit(p)
		}
		must(run(sim.Time(900 * time.Millisecond)))
		// Phase 3: heal and settle.
		heal()
		must(run(sim.Time(4 * time.Second)))

		got := counts()
		res := result{submitted: submitted, minCoverage: 1 << 30}
		for v := 0; v < submitted; v++ {
			val := types.Value(fmt.Sprintf("w%d", v+1))
			everywhere, anywhere := true, false
			for _, p := range types.RangeProcSet(n).Members() {
				if got[p][val] {
					anywhere = true
				} else {
					everywhere = false
				}
			}
			if everywhere {
				res.everywhere++
			}
			if !anywhere {
				res.lost++
			}
		}
		for _, p := range types.RangeProcSet(n).Members() {
			if len(got[p]) < res.minCoverage {
				res.minCoverage = len(got[p])
			}
		}
		return res
	}

	// VStoTO stack.
	sc := stack.NewCluster(stack.Options{Seed: seed, N: n, Delta: delta})
	vsRes := scenario(
		func(p types.ProcID, a types.Value) { sc.Bcast(p, a) },
		func(until sim.Time) error { return sc.Sim.Run(until) },
		func() map[types.ProcID]map[types.Value]bool { return coverage(n, sc.Deliveries) },
		func() { sc.Oracle.Partition(sc.Procs, majority, minority) },
		func() { sc.Oracle.Heal(sc.Procs) },
	)
	t.Rows = append(t.Rows, []string{
		"VStoTO (partitionable)", fmt.Sprint(vsRes.submitted), fmt.Sprint(vsRes.everywhere),
		fmt.Sprint(vsRes.minCoverage), fmt.Sprint(vsRes.lost),
	})

	// Primary-partition model.
	pc := newPrimary(seed, n, delta)
	prRes := scenario(
		pc.Bcast,
		func(until sim.Time) error { return pc.Sim.Run(until) },
		func() map[types.ProcID]map[types.Value]bool { return coverage(n, pc.Deliveries) },
		func() { pc.Oracle.Partition(pc.Procs, majority, minority) },
		func() { pc.Oracle.Heal(pc.Procs) },
	)
	if err := pc.CheckNoDivergence(); err != nil {
		t.Failures = append(t.Failures, fmt.Sprintf("primary model diverged: %v", err))
	}
	t.Rows = append(t.Rows, []string{
		"primary-partition", fmt.Sprint(prRes.submitted), fmt.Sprint(prRes.everywhere),
		fmt.Sprint(prRes.minCoverage), fmt.Sprint(prRes.lost),
	})

	if vsRes.everywhere != vsRes.submitted || vsRes.lost != 0 {
		t.Failures = append(t.Failures, fmt.Sprintf(
			"VStoTO did not deliver everything everywhere (%d/%d, lost %d)",
			vsRes.everywhere, vsRes.submitted, vsRes.lost))
	}
	if prRes.lost == 0 && prRes.everywhere == prRes.submitted {
		t.Failures = append(t.Failures,
			"primary model lost nothing — the scenario no longer demonstrates the trade")
	}
	t.Notes = append(t.Notes,
		"scenario: 2 values before the cut, 4 during the 5→3|2 partition (2 on each side), then heal and settle.",
		"primary model delivers only in quorum views, with no state transfer — minority submissions are lost and rejoiners keep gaps.")
	return t
}

// coverage indexes which values each of nodes 0..n-1 delivered.
func coverage(n int, deliveries func(types.ProcID) []stack.Delivery) map[types.ProcID]map[types.Value]bool {
	out := make(map[types.ProcID]map[types.Value]bool, n)
	for _, p := range types.RangeProcSet(n).Members() {
		out[p] = make(map[types.Value]bool)
		for _, d := range deliveries(p) {
			out[p][d.Value] = true
		}
	}
	return out
}

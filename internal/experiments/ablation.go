package experiments

import (
	"fmt"
	"time"

	"repro/internal/props"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/types"
)

// E9 is an ablation of the membership protocol's collection window: the
// accept round trip takes up to 2δ, so windows ≤ 2δ miss worst-case
// replies and views collapse to singletons, which (through probe-triggered
// re-formation) never converge. The experiment sweeps the window and
// reports whether a partition's components converge and how much view
// churn occurs — the cliff sits exactly at 2δ.
func E9(seed int64) *Table {
	t := &Table{
		ID:      "E9",
		Title:   "Ablation: membership collection window vs the 2δ round trip",
		Claim:   "windows > 2δ converge with minimal churn; windows ≤ 2δ churn without converging (design choice called out in DESIGN.md)",
		Columns: []string{"collect window", "converged", "merge l'", "views installed@p0", "timeouts@p0"},
	}
	const n = 5
	delta := time.Millisecond
	for _, factor := range []float64{1.0, 2.0, 2.5, 4.0} {
		window := time.Duration(factor * float64(delta))
		c := stack.NewCluster(stack.Options{
			Seed: seed, N: n, Delta: delta, CollectWait: window,
			Log: &props.Log{},
		})
		left := types.NewProcSet(0, 1, 2)
		right := types.NewProcSet(3, 4)
		c.Sim.After(40*time.Millisecond, func() { c.Oracle.Partition(c.Procs, left, right) })
		var heal sim.Time
		c.Sim.After(300*time.Millisecond, func() {
			c.Oracle.Heal(c.Procs)
			heal = c.Sim.Now()
		})
		must(c.Sim.Run(sim.Time(2 * time.Second)))
		m := props.MeasureVS(c.Log, c.Procs, heal)
		lp := "—"
		if m.Converged {
			lp = ms(m.LPrime)
		}
		st := c.Node(0).VS().FormerStats()
		vs := c.Node(0).VS().Stats()
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1fδ", factor),
			fmt.Sprintf("%t", m.Converged),
			lp,
			fmt.Sprint(st.Installed),
			fmt.Sprint(vs.Timeouts),
		})
		// The claim: the healthy windows converge, the broken ones do not.
		if factor > 2.0 && !m.Converged {
			t.Failures = append(t.Failures, fmt.Sprintf("window %.1fδ failed to converge", factor))
		}
		if factor <= 2.0 && m.Converged {
			t.Failures = append(t.Failures,
				fmt.Sprintf("window %.1fδ converged — the ablation no longer demonstrates the cliff", factor))
		}
	}
	t.Notes = append(t.Notes,
		"with worst-case δ delivery, accepts arrive exactly at 2δ and lose the tie against the collection deadline.")
	return t
}

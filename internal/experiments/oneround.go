package experiments

import (
	"fmt"
	"time"

	"repro/internal/props"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/types"
)

// E10 compares the 3-round membership protocol against the one-round
// variant of footnote 7 ("a different implementation could use the
// one-round protocol of [19]; however, this would stabilize less
// quickly"). Both run the same crash-and-survive scenario; the one-round
// protocol reacts faster when nothing is wrong but pays extra timeout
// cycles after failures while its reachability estimate is stale.
func E10(seed int64) *Table {
	t := &Table{
		ID:      "E10",
		Title:   "3-round vs one-round membership (footnote 7)",
		Claim:   "both converge, and the one-round protocol stabilizes less quickly after failures (stale reachability estimates cost extra timeout cycles)",
		Columns: []string{"n", "protocol", "crash l'", "merge l'", "converged"},
	}
	delta := time.Millisecond
	for _, n := range []int{4, 6} {
		type result struct {
			crash, merge time.Duration
			ok           bool
		}
		run := func(oneRound bool) result {
			c := stack.NewCluster(stack.Options{
				Seed: seed + int64(n), N: n, Delta: delta, OneRound: oneRound,
				Log: &props.Log{},
			})
			survivors := types.NewProcSet(c.Procs.Members()[1:]...)
			// Crash the leader, then later heal: measure both stabilizations.
			var crashAt, healAt sim.Time
			c.Sim.After(60*time.Millisecond, func() {
				c.Oracle.Isolate(survivors, c.Procs)
				crashAt = c.Sim.Now()
			})
			c.Sim.After(800*time.Millisecond, func() {
				c.Oracle.Heal(c.Procs)
				healAt = c.Sim.Now()
			})
			if err := c.Sim.Run(sim.Time(4 * time.Second)); err != nil {
				panic(err)
			}
			mCrash := props.MeasureVS(c.Log.Until(healAt), survivors, crashAt)
			mMerge := props.MeasureVS(c.Log, c.Procs, healAt)
			return result{
				crash: mCrash.LPrime,
				merge: mMerge.LPrime,
				ok:    mCrash.Converged && mMerge.Converged,
			}
		}
		three := run(false)
		one := run(true)
		for _, row := range []struct {
			name string
			r    result
		}{{"3-round", three}, {"one-round", one}} {
			t.Rows = append(t.Rows, []string{
				fmt.Sprint(n), row.name, ms(row.r.crash), ms(row.r.merge), fmt.Sprintf("%t", row.r.ok),
			})
			if !row.r.ok {
				t.Failures = append(t.Failures, fmt.Sprintf("n=%d %s did not converge", n, row.name))
			}
		}
		if one.ok && three.ok && one.crash < three.crash {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"n=%d: one-round recovered from the crash faster (%v vs %v) — the trade shows in the merge column",
				n, one.crash, three.crash))
		}
		if one.ok && three.ok && one.crash+one.merge <= three.crash+three.merge {
			t.Failures = append(t.Failures, fmt.Sprintf(
				"n=%d: one-round total stabilization (%v) not slower than 3-round (%v) — footnote 7's trade not reproduced",
				n, one.crash+one.merge, three.crash+three.merge))
		}
	}
	return t
}

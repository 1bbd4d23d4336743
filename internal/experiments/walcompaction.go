package experiments

import (
	"fmt"
	"time"

	"repro/internal/failures"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/types"
)

// E15 measures what WAL snapshot/compaction buys at rejoin: the replay
// cost of the k-th crash as the log's total appended length grows with
// repeated crash/recover cycles. Each cycle appends a full round of
// traffic plus the establish records of the rejoin churn (each holding
// only the order suffix its exchange changed), so without compaction the
// log grows with history and the k-th replay reads all of it.
// With compaction the retained log is a recent checkpoint plus a bounded
// suffix: replayed records stay flat in the number of cycles while total
// appended bytes keep climbing.
//
// E14 shows rejoin *latency* is flat in WAL length because replay is a
// local read costing no virtual time; E15 is the complementary claim
// about the size of that local read, which in a live deployment (where
// reading is real work — see the live matrix) is the rejoin cost.
func E15(seed int64) *Table {
	t := &Table{
		ID:    "E15",
		Title: "WAL compaction: replay cost of the k-th crash vs total log length",
		Claim: "with checkpoint/compaction the k-th crash replays a checkpoint plus a bounded suffix (flat in k); without, it replays the whole history (growing in k)",
		Columns: []string{"crash cycles", "compaction", "total WAL appended", "bytes replayed at last crash",
			"records replayed", "checkpoints"},
	}

	type outcome struct {
		appended, replayBytes, replayRecords, checkpoints int
	}
	const n = 3
	const perCycle = 6 // values per cycle
	delta := time.Millisecond
	victim := types.ProcID(1)

	run := func(cycles, ckptBytes int) outcome {
		c := stack.NewCluster(stack.Options{
			Seed: seed, N: n, Delta: delta, CheckpointBytes: ckptBytes,
		})
		must(c.Sim.RunFor(30 * time.Millisecond))
		bound := c.Cfg.AnalyticB(n) + 2*c.Cfg.AnalyticDImpl(n)
		pace := 2 * c.Cfg.Pi
		limit := sim.Time(120 * time.Second)
		seq := 0
		for cyc := 0; cyc < cycles; cyc++ {
			// One round of traffic, submitted at the never-crashed node 0.
			for i := 0; i < perCycle; i++ {
				seq++
				v := types.Value(fmt.Sprintf("v%d", seq))
				c.Sim.After(time.Duration(i)*pace, func() { c.Bcast(0, v) })
			}
			want := perCycle * (cyc + 1)
			if !runUntil(c.Sim, 5*time.Millisecond, limit, func() bool { return len(c.Deliveries(0)) >= want }) {
				panic("E15: burst never delivered")
			}
			// Wipe the victim, heal, and let it rejoin (replaying its WAL)
			// before the next round. The heal can recover the victim
			// synchronously, so the wait checks before it runs.
			c.Oracle.SetProc(victim, failures.Amnesia)
			must(c.Sim.RunFor(5 * time.Millisecond))
			c.Oracle.Heal(c.Procs)
			if !runUntil(c.Sim, 5*time.Millisecond, limit, func() bool { return c.Node(victim).Recoveries() > cyc }) {
				panic("E15: victim never recovered")
			}
			must(c.Sim.RunFor(bound))
		}
		snap := c.Node(victim).LastReplay()
		return outcome{
			appended:      c.Node(victim).WAL().EndOffset(),
			replayBytes:   snap.TruncatedAt,
			replayRecords: snap.Records,
			checkpoints:   c.Node(victim).Checkpoints(),
		}
	}

	// The threshold must stay above the checkpoint record's own size
	// (about 1.4 KB at 8 cycles: it holds the whole order and content),
	// or every checkpoint would trigger the next; below that, at 1 280 B,
	// the 8-cycle run writes 12 checkpoints.
	const ckptBytes = 1536
	results := map[bool]map[int]outcome{true: {}, false: {}}
	for _, cycles := range []int{2, 4, 8} {
		for _, compact := range []bool{false, true} {
			ck := 0
			label := "off"
			if compact {
				ck, label = ckptBytes, fmt.Sprintf("every %dB", ckptBytes)
			}
			o := run(cycles, ck)
			results[compact][cycles] = o
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", cycles), label, fmt.Sprintf("%d", o.appended),
				fmt.Sprintf("%d", o.replayBytes), fmt.Sprintf("%d", o.replayRecords),
				fmt.Sprintf("%d", o.checkpoints),
			})
		}
	}

	// The claim, as ratios over a 4× increase in crash cycles: replayed
	// records must grow with history when compaction is off and stay
	// essentially flat when it is on.
	off2, off8 := results[false][2], results[false][8]
	on2, on8 := results[true][2], results[true][8]
	if off8.replayRecords < 3*off2.replayRecords {
		t.Failures = append(t.Failures, fmt.Sprintf(
			"without compaction, replay should track history: %d records at 8 cycles vs %d at 2",
			off8.replayRecords, off2.replayRecords))
	}
	if on8.replayRecords > 2*on2.replayRecords {
		t.Failures = append(t.Failures, fmt.Sprintf(
			"with compaction, replay should be flat: %d records at 8 cycles vs %d at 2",
			on8.replayRecords, on2.replayRecords))
	}
	if 2*on8.replayRecords > off8.replayRecords {
		t.Failures = append(t.Failures, fmt.Sprintf(
			"at 8 cycles compaction should at least halve the replay: %d records vs %d without",
			on8.replayRecords, off8.replayRecords))
	}
	if on8.checkpoints == 0 {
		t.Failures = append(t.Failures, "compacted run never checkpointed")
	}

	t.Notes = append(t.Notes,
		"replay cost is records/bytes read at the final crash's recovery; total appended is the log's logical end offset (compaction never renumbers)",
		"establish records hold only the order suffix their state exchange changed, so the uncompacted log grows linearly in delivered history (a record per submission, label, order append and delivery); the checkpoint records the whole state once and the prefix before the previous checkpoint is discarded",
		"compare E14: same crash, complementary axis — E14 pins rejoin latency (replay is a local read), E15 pins the size of that read")
	return t
}

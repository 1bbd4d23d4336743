package experiments

import (
	"fmt"
	"time"

	"repro/internal/failures"
	"repro/internal/stack"
	"repro/internal/types"
)

// E14 measures crash recovery: the latency for an amnesia-crashed
// processor to rejoin and deliver again, as a function of (a) how much WAL
// it must replay and (b) the stable-storage write latency λ — the same λ
// axis as the E5 baseline comparison. The claim under test: replay is a
// local read, so rejoin latency stays within the analytic post-heal
// budget b + 2·d_impl plus a small number of serialized post-heal writes
// (the recovery marker, the rejoin view record, and the first delivery
// record — each λ), regardless of how long the log has grown. In steady
// state the stack pays λ per write flight, not per message (E5, E16).
func E14(seed int64) *Table {
	t := &Table{
		ID:    "E14",
		Title: "crash recovery: rejoin latency vs WAL length and storage latency",
		Claim: "WAL replay is local: rejoin latency is bounded by b + 2·d_impl + 3λ independent of WAL length; WAL size grows with traffic, rejoin latency does not",
		Columns: []string{"pre-crash msgs", "storage latency", "WAL bytes", "WAL records replayed",
			"rejoin latency", "budget"},
	}
	const n = 3
	delta := time.Millisecond
	victim := types.ProcID(1)

	run := func(k int, lat time.Duration) {
		c := stack.NewCluster(stack.Options{Seed: seed, N: n, Delta: delta, StorageLatency: lat})
		// Pre-crash traffic grows the victim's WAL: k values, paced so the
		// serialized write head (λ per record) keeps up.
		pacedBurst(c.Sim, n, k, max(2*c.Cfg.Pi, 4*lat), func(p types.ProcID, v types.Value) { c.Bcast(p, v) }, c.Deliveries)
		// Quiesce so the WAL tail is durable, then wipe the victim.
		must(c.Sim.RunFor(time.Duration(k+4) * lat))
		walBytes := c.Node(victim).WAL().Storage().Size()
		c.Oracle.SetProc(victim, failures.Amnesia)
		must(c.Sim.RunFor(5 * time.Millisecond))
		healT := c.Sim.Now()
		c.Oracle.Heal(c.Procs)
		// Probe traffic from a survivor: the victim's first post-heal
		// delivery marks its rejoin. The first probe leaves at the heal
		// itself, so rejoin latency is not probe-limited. Pacing must
		// respect the write head: each value costs several WAL records at
		// the origin, so probes arriving faster than ~8λ saturate the
		// device, its queued view records delay installations, and view
		// formation churns instead of converging.
		probePace := max(c.Cfg.Pi, 8*lat)
		for i := 0; i < 200; i++ {
			i := i
			c.Sim.At(healT.Add(time.Duration(i)*probePace), func() {
				c.Bcast(0, types.Value(fmt.Sprintf("probe%d", i)))
			})
		}
		budget := c.Cfg.AnalyticB(n) + 2*c.Cfg.AnalyticDImpl(n) + 3*lat
		var rejoin time.Duration
		rejoined := func() bool {
			for _, d := range c.Deliveries(victim) {
				if d.Time > healT {
					rejoin = d.Time.Sub(healT)
					return true
				}
			}
			return false
		}
		if !runUntil(c.Sim, time.Millisecond, healT.Add(10*budget), rejoined) {
			t.Failures = append(t.Failures, fmt.Sprintf(
				"k=%d λ=%v: victim never rejoined within 10× budget", k, lat))
			return
		}
		snap := c.Node(victim).LastReplay()
		records := 0
		if snap != nil {
			records = snap.Records
		}
		if c.Node(victim).Recoveries() != 1 {
			t.Failures = append(t.Failures, fmt.Sprintf(
				"k=%d λ=%v: %d recoveries, want 1", k, lat, c.Node(victim).Recoveries()))
		}
		if records == 0 || walBytes == 0 {
			t.Failures = append(t.Failures, fmt.Sprintf(
				"k=%d λ=%v: empty WAL at crash (bytes=%d records=%d)", k, lat, walBytes, records))
		}
		if rejoin > budget {
			t.Failures = append(t.Failures, fmt.Sprintf(
				"k=%d λ=%v: rejoin latency %v exceeds budget %v", k, lat, rejoin, budget))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", k), ms(lat), fmt.Sprintf("%d", walBytes),
			fmt.Sprintf("%d", records), ms(rejoin), ms(budget),
		})
	}

	// (a) WAL length sweep at a fixed latency of δ.
	for _, k := range []int{4, 16, 64} {
		run(k, delta)
	}
	// (b) storage-latency sweep at fixed traffic — the E5 λ axis.
	for _, lat := range []time.Duration{0, 5 * delta, 20 * delta} {
		run(16, lat)
	}
	t.Notes = append(t.Notes,
		"budget = b + 2·d_impl + 3λ: the recovery-liveness bound the chaos harness enforces, plus the three serialized post-heal writes (recovery marker, rejoin view record, first delivery record)",
		"compare E5: in steady state the baseline pays λ per message and the stack pays it per write flight; here λ enters the rejoin only through the three serialized writes, and replay itself is a local read costing no virtual time")
	return t
}

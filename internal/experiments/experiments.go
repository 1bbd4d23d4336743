// Package experiments implements the evaluation harness: one function per
// experiment in DESIGN.md's per-experiment index (E1–E17), each regenerating
// the measurements that validate the paper's claims — the conditional
// properties TO-property and VS-property (Figures 5 and 7, Theorems 7.1 and
// 7.2), the Section 8 analytic bounds, the introduction's comparison
// against a stable-storage baseline, and the ablations and extensions
// built on them. cmd/experiments drives these functions and writes the
// two checked-in pins, BENCH_sweep.json and BENCH_explore.json.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/baseline"
	"repro/internal/props"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/types"
)

// Table is one experiment's report.
type Table struct {
	ID      string
	Title   string
	Claim   string // the paper's claim being validated
	Columns []string
	Rows    [][]string
	Notes   []string
	// Failures collects bound violations or check failures; empty means
	// the run validated the claim.
	Failures []string
}

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(&b, "claim: %s\n", t.Claim)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "  %-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	line(dashes(widths))
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	for _, f := range t.Failures {
		fmt.Fprintf(&b, "FAIL: %s\n", f)
	}
	if len(t.Failures) == 0 {
		b.WriteString("result: claim validated\n")
	}
	return b.String()
}

// CSV renders the table as RFC-4180-ish CSV (header row then data rows),
// for plotting the experiment series outside Go.
func (t *Table) CSV() string {
	var b strings.Builder
	esc := func(cell string) string {
		if strings.ContainsAny(cell, ",\"\n") {
			return "\"" + strings.ReplaceAll(cell, "\"", "\"\"") + "\""
		}
		return cell
	}
	row := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(esc(c))
		}
		b.WriteByte('\n')
	}
	row(t.Columns)
	for _, r := range t.Rows {
		row(r)
	}
	return b.String()
}

func dashes(widths []int) []string {
	out := make([]string, len(widths))
	for i, w := range widths {
		out[i] = strings.Repeat("-", w)
	}
	return out
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// runUntil is the harness's one settle loop: it advances s in steps of
// step until done holds, checking done before every step, and reports
// false if the clock passes limit first.
func runUntil(s *sim.Sim, step time.Duration, limit sim.Time, done func() bool) bool {
	for !done() {
		if s.Now() > limit {
			return false
		}
		must(s.RunFor(step))
	}
	return true
}

// allDelivered reports whether each of nodes 0..n-1 has delivered at
// least k values. D is any cluster's delivery record.
func allDelivered[D any](n, k int, deliveries func(types.ProcID) []D) bool {
	for p := 0; p < n; p++ {
		if len(deliveries(types.ProcID(p))) < k {
			return false
		}
	}
	return true
}

// pacedBurst drives any simulated cluster through one paced burst: after
// a 30ms boot it submits k values, value i at node i mod n and i·pace
// after the start, runs until every node has delivered all k, and returns
// how long that took.
func pacedBurst[D any](s *sim.Sim, n, k int, pace time.Duration,
	bcast func(types.ProcID, types.Value), deliveries func(types.ProcID) []D) time.Duration {
	must(s.RunFor(30 * time.Millisecond))
	start := s.Now()
	for i := 0; i < k; i++ {
		i := i
		s.After(time.Duration(i)*pace, func() { bcast(types.ProcID(i%n), types.Value(fmt.Sprintf("v%d", i))) })
	}
	if !runUntil(s, 5*time.Millisecond, sim.Time(60*time.Second), func() bool { return allDelivered(n, k, deliveries) }) {
		panic("experiments: paced burst never completed")
	}
	return s.Now().Sub(start)
}

// isolationRun drives one cluster run: isolate component Q at cutAt, send
// periodic traffic from Q before and after, run until the horizon with a
// quiet tail, and return the cluster.
func isolationRun(seed int64, n, qSize int, delta time.Duration) (*stack.Cluster, types.ProcSet, sim.Time) {
	c := stack.NewCluster(stack.Options{Seed: seed, N: n, Delta: delta, Log: &props.Log{}})
	q := types.NewProcSet(c.Procs.Members()[:qSize]...)

	var cut sim.Time
	c.Sim.After(50*time.Millisecond, func() {
		c.Oracle.Isolate(q, c.Procs)
		cut = c.Sim.Now()
	})
	// Pre-cut and post-cut traffic from members of Q.
	c.Sim.After(20*time.Millisecond, func() { c.Bcast(q.Members()[0], "pre-cut") })
	for i := 0; i < 10; i++ {
		i := i
		c.Sim.After(time.Duration(200+40*i)*time.Millisecond, func() {
			p := q.Members()[i%q.Size()]
			c.Bcast(p, types.Value(fmt.Sprintf("v%d", i)))
		})
	}
	// Horizon: generous, with a quiet tail so every safe/delivery lands.
	must(c.Sim.Run(sim.Time(5 * time.Second)))
	return c, q, cut
}

// E1 validates TO-property(b+d, d, Q) (Figure 5, Theorem 7.2) across
// system sizes: after a component stabilizes, every value — including
// values sent before the partition — reaches every member of Q within the
// analytic bounds.
func e1(seed int64, workers int) *Table {
	t := &Table{
		ID:      "E1",
		Title:   "TO service stabilization and delivery bounds",
		Claim:   "Theorem 7.2: the stack satisfies TO(b+d, d, Q) with b = 9δ+max{π+(n+3)δ, μ}, d = 2π+nδ",
		Columns: []string{"n", "|Q|", "δ", "l' meas", "b+d_impl", "send lag", "relay lag", "d paper", "d_impl", "values", "ok"},
	}
	ns := []int{3, 5, 7, 9}
	appendTrials(t, workers, len(ns), func(i int) trial {
		n := ns[i]
		var tr trial
		qSize := n/2 + 1
		delta := time.Millisecond
		c, q, cut := isolationRun(seed+int64(n), n, qSize, delta)
		b := c.Cfg.AnalyticB(qSize)
		dPaper := c.Cfg.AnalyticD(qSize)
		dImpl := c.Cfg.AnalyticDImpl(qSize)
		vs := props.MeasureVS(c.Log, q, cut)
		to := props.MeasureTO(c.Log, q, cut, vs.LPrime+dImpl)
		ok := "yes"
		if err := props.CheckTOProperty(c.Log, q, cut, b+dImpl, dImpl); err != nil {
			ok = "NO"
			tr.failures = append(tr.failures, fmt.Sprintf("n=%d: %v", n, err))
		}
		tr.rows = append(tr.rows, []string{
			fmt.Sprint(n), fmt.Sprint(qSize), ms(delta),
			ms(vs.LPrime), ms(b + dImpl),
			ms(to.MaxSendLag), ms(to.MaxRelayLag), ms(dPaper), ms(dImpl),
			fmt.Sprint(to.ValuesMeasured), ok,
		})
		return tr
	})
	t.Notes = append(t.Notes,
		"l' measured as the last newview at a member of Q after the cut; lags measured against max(send, l+l').",
		"d_impl = 3(π+nδ) is this token discipline's worst case; the paper quotes d = 2π+nδ for the protocol of [19] — same linear shape, smaller constant.")
	return t
}

// E2 validates VS-property(b, d, Q) (Figure 7): view convergence within b
// and safe indications within d, for both sides of a partition.
func e2(seed int64, workers int) *Table {
	t := &Table{
		ID:      "E2",
		Title:   "VS service view convergence and safe latency",
		Claim:   "VS-property(b, d, Q): views converge to exactly Q within b; messages sent in the final view are safe everywhere within d",
		Columns: []string{"n", "component", "l' meas", "b bound", "safe lag", "d paper", "d_impl", "msgs", "ok"},
	}
	ns := []int{4, 6, 8}
	appendTrials(t, workers, len(ns), func(i int) trial {
		n := ns[i]
		var tr trial
		delta := time.Millisecond
		c := stack.NewCluster(stack.Options{Seed: seed + int64(n), N: n, Delta: delta, Log: &props.Log{}})
		left := types.NewProcSet(c.Procs.Members()[:n/2]...)
		right := types.NewProcSet(c.Procs.Members()[n/2:]...)
		var cut sim.Time
		c.Sim.After(50*time.Millisecond, func() {
			c.Oracle.Partition(c.Procs, left, right)
			cut = c.Sim.Now()
		})
		for i := 0; i < 6; i++ {
			i := i
			c.Sim.After(time.Duration(300+50*i)*time.Millisecond, func() {
				c.Bcast(left.Members()[i%left.Size()], types.Value(fmt.Sprintf("l%d", i)))
				c.Bcast(right.Members()[i%right.Size()], types.Value(fmt.Sprintf("r%d", i)))
			})
		}
		must(c.Sim.Run(sim.Time(5 * time.Second)))
		for _, side := range []struct {
			name string
			q    types.ProcSet
		}{{"left", left}, {"right", right}} {
			q := side.q
			b := c.Cfg.AnalyticB(q.Size())
			dPaper := c.Cfg.AnalyticD(q.Size())
			dImpl := c.Cfg.AnalyticDImpl(q.Size())
			m := props.MeasureVS(c.Log, q, cut)
			ok := "yes"
			if err := props.CheckVSProperty(c.Log, q, cut, b, dImpl); err != nil {
				ok = "NO"
				tr.failures = append(tr.failures, fmt.Sprintf("n=%d %s: %v", n, side.name, err))
			}
			tr.rows = append(tr.rows, []string{
				fmt.Sprint(n), fmt.Sprintf("%s %v", side.name, q),
				ms(m.LPrime), ms(b), ms(m.MaxSafeLag), ms(dPaper), ms(dImpl),
				fmt.Sprint(m.MsgsMeasured), ok,
			})
		}
		return tr
	})
	return t
}

// E3 reproduces the Figure 12 phase decomposition: the TO stabilization
// interval splits into the VS stabilization (≤ b) plus the state-exchange
// safe phase (≤ d), after which deliveries complete within a further d.
func E3(seed int64) *Table {
	t := &Table{
		ID:      "E3",
		Title:   "Phase decomposition of the Theorem 7.1 argument",
		Claim:   "Figure 12: l'_TO = l'_VS + (state-exchange phase ≤ d); subsequent deliveries within d",
		Columns: []string{"n", "l'_VS", "b", "exch phase", "d_impl", "delivery lag", "ok"},
	}
	for _, n := range []int{3, 5, 7} {
		qSize := n/2 + 1
		delta := time.Millisecond
		c, q, cut := isolationRun(seed+int64(n), n, qSize, delta)
		b := c.Cfg.AnalyticB(qSize)
		d := c.Cfg.AnalyticDImpl(qSize)
		ph := props.MeasurePhases(c.Log, q, cut)
		ok := "yes"
		if ph.VS.LPrime > b {
			ok = "NO"
			t.Failures = append(t.Failures, fmt.Sprintf("n=%d: l'_VS %v > b %v", n, ph.VS.LPrime, b))
		}
		if ph.ExchangePhase > d {
			ok = "NO"
			t.Failures = append(t.Failures, fmt.Sprintf("n=%d: exchange phase %v > d %v", n, ph.ExchangePhase, d))
		}
		if ph.PostLag > d || ph.Incomplete > 0 {
			ok = "NO"
			t.Failures = append(t.Failures, fmt.Sprintf("n=%d: post-exchange delivery lag %v > d %v (incomplete %d)",
				n, ph.PostLag, d, ph.Incomplete))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), ms(ph.VS.LPrime), ms(b), ms(ph.ExchangePhase), ms(d), ms(ph.PostLag), ok,
		})
	}
	t.Notes = append(t.Notes,
		"exchange phase: from the last newview in Q until every member's state-exchange summary is safe at every member.",
		"final column: worst post-stabilization delivery lag, bounded by a further d (clause 2 of VStoTO-property).")
	return t
}

// E4 sweeps n and δ and compares measured stabilization and safe latency
// against the Section 8 analytic formulas.
func e4(seed int64, workers int) *Table {
	t := &Table{
		ID:      "E4",
		Title:   "Section 8 analytic bounds vs measured (token-ring VS)",
		Claim:   "b = 9δ + max{π+(n+3)δ, μ} and d = 2π + nδ bound measured stabilization and safe latency; both grow linearly in n and δ",
		Columns: []string{"n", "δ", "π", "merge l'", "b bound", "safe lag", "d paper", "d_impl", "ok"},
	}
	type cfg struct {
		n     int
		delta time.Duration
	}
	var cfgs []cfg
	for _, n := range []int{3, 4, 5, 6, 8} {
		for _, delta := range []time.Duration{500 * time.Microsecond, time.Millisecond, 2 * time.Millisecond} {
			cfgs = append(cfgs, cfg{n, delta})
		}
	}
	appendTrials(t, workers, len(cfgs), func(i int) trial {
		n, delta := cfgs[i].n, cfgs[i].delta
		var tr trial
		{
			c := stack.NewCluster(stack.Options{Seed: seed + int64(n*1000) + int64(delta), N: n, Delta: delta, Log: &props.Log{}})
			left := types.NewProcSet(c.Procs.Members()[:n/2]...)
			right := types.NewProcSet(c.Procs.Members()[n/2:]...)
			// Partition, then heal: the measured quantity is the merge time,
			// the hardest stabilization case (detection via probes).
			c.Sim.After(sim.Time(50*delta).Duration(), func() { c.Oracle.Partition(c.Procs, left, right) })
			var heal sim.Time
			c.Sim.After(sim.Time(400*delta).Duration(), func() {
				c.Oracle.Heal(c.Procs)
				heal = c.Sim.Now()
			})
			for i := 0; i < 5; i++ {
				i := i
				c.Sim.After(sim.Time(600*delta).Duration()+time.Duration(i)*c.Cfg.Pi, func() {
					c.Bcast(types.ProcID(i%n), types.Value(fmt.Sprintf("m%d", i)))
				})
			}
			must(c.Sim.Run(sim.Time(2000 * delta)))
			b := c.Cfg.AnalyticB(n)
			dPaper := c.Cfg.AnalyticD(n)
			dImpl := c.Cfg.AnalyticDImpl(n)
			m := props.MeasureVS(c.Log, c.Procs, heal)
			ok := "yes"
			switch {
			case !m.Converged:
				ok = "NO"
				tr.failures = append(tr.failures, fmt.Sprintf("n=%d δ=%v: no convergence after heal", n, delta))
			case m.LPrime > b:
				ok = "NO"
				tr.failures = append(tr.failures, fmt.Sprintf("n=%d δ=%v: merge %v > b %v", n, delta, m.LPrime, b))
			case m.IncompleteSafe > 0:
				ok = "NO"
				tr.failures = append(tr.failures, fmt.Sprintf("n=%d δ=%v: %d incomplete safe", n, delta, m.IncompleteSafe))
			case m.MaxSafeLag > dImpl:
				ok = "NO"
				tr.failures = append(tr.failures, fmt.Sprintf("n=%d δ=%v: safe lag %v > d_impl %v", n, delta, m.MaxSafeLag, dImpl))
			}
			tr.rows = append(tr.rows, []string{
				fmt.Sprint(n), ms(delta), ms(c.Cfg.Pi),
				ms(m.LPrime), ms(b), ms(m.MaxSafeLag), ms(dPaper), ms(dImpl), ok,
			})
		}
		return tr
	})
	return t
}

// E5 compares steady-state delivery latency of the VStoTO stack against
// the stable-storage baseline as storage latency grows.
func E5(seed int64) *Table {
	t := &Table{
		ID:      "E5",
		Title:   "VStoTO vs stable-storage (Keidar–Dolev-style) baseline",
		Claim:   "the introduction's trade-off: the baseline pays per-message log latency; VStoTO's steady-state latency is independent of storage",
		Columns: []string{"protocol", "storage latency", "burst completion", "per-msg mean", "per-msg p99", "stable writes/node"},
	}
	const n, k = 3, 8
	delta := time.Millisecond

	// Paced submissions (one per 2π) so per-message latency reflects the
	// protocol, not queueing behind the burst.
	sc := stack.NewCluster(stack.Options{Seed: seed, N: n, Delta: delta, Log: &props.Log{}})
	stackTime := pacedBurst(sc.Sim, n, k, 2*sc.Cfg.Pi, func(p types.ProcID, v types.Value) { sc.Bcast(p, v) }, sc.Deliveries)
	stackLat := props.MeasureDeliveryLatency(sc.Log, sc.Procs)
	t.Rows = append(t.Rows, []string{
		"VStoTO stack", "–", ms(stackTime), ms(stackLat.Mean), ms(stackLat.P99), "0",
	})

	var prev time.Duration
	for _, lat := range []time.Duration{0, delta, 5 * delta, 20 * delta} {
		c := baseline.NewCluster(baseline.Options{Seed: seed, N: n, Delta: delta, StorageLatency: lat})
		took := pacedBurst(c.Sim, n, k, 2*c.Cfg.Pi, c.Bcast, c.Deliveries)
		blat := props.MeasureDeliveryLatency(c.Log, c.Procs)
		if took < prev {
			t.Failures = append(t.Failures,
				fmt.Sprintf("baseline latency not monotone in storage latency (%v at %v)", took, lat))
		}
		prev = took
		if lat >= 5*delta && blat.Mean <= stackLat.Mean {
			t.Failures = append(t.Failures,
				fmt.Sprintf("baseline per-message mean (%v at storage %v) not above stack (%v)", blat.Mean, lat, stackLat.Mean))
		}
		t.Rows = append(t.Rows, []string{
			"baseline", ms(lat), ms(took), ms(blat.Mean), ms(blat.P99), fmt.Sprint(c.StorageWrites(0)),
		})
	}
	if prev <= stackTime {
		t.Failures = append(t.Failures, "baseline with 20δ storage not slower than stack")
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d values over %d nodes, one submission per 2π; completion = all values delivered at all nodes.", k, n),
		"per-msg latency: bcast → last delivery at any node (distribution over values).")
	return t
}

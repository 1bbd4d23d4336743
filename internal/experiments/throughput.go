package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/types"
)

// E16 measures what the hot-path batching work buys: WAL group commit
// (one covering storage write per batch of delivery records instead of
// one λ each), delivery-record pipelining, and eager token rounds. A
// single-origin burst makes the check exact — with one submitter the
// total order is the submission order in every run, so the batched run
// must deliver the byte-identical sequence at every node, just faster.
//
// The seed path serializes one λ per delivered value (write record, wait
// for durability, release, repeat), so at λ = 5ms a 400-value burst
// costs ≥ 2 virtual seconds in storage stalls alone. The batched path
// overlaps those writes behind one in-flight covering write and keeps
// token rounds back-to-back, so throughput must improve by at least the
// issue's 3× floor while the delivered sequences stay digest-identical.
func E16(seed int64) *Table {
	t := &Table{
		ID:    "E16",
		Title: "group commit + pipelined delivery: throughput vs storage latency",
		Claim: "batching the WAL and delivery hot path yields >=3x delivered msgs/sec at lambda=5ms with a byte-identical total order",
		Columns: []string{"mode", "values", "virtual elapsed", "deliveries/sec",
			"order digest"},
	}

	const (
		n      = 3
		values = 400
		lambda = 5 * time.Millisecond
	)
	delta := time.Millisecond
	origin := types.ProcID(0)

	type outcome struct {
		elapsed time.Duration
		rate    float64
		// digests[p] fingerprints node p's delivered (From, Value)
		// sequence; all must agree within a run and across runs.
		digests []string
	}

	run := func(batched bool) outcome {
		opts := stack.Options{
			Seed: seed, N: n, Delta: delta, StorageLatency: lambda,
		}
		if batched {
			opts = opts.Batched()
		}
		c := stack.NewCluster(opts)
		must(c.Sim.RunFor(30 * time.Millisecond))
		// Single-origin burst: all values enter at one node, at one
		// instant, so the total order is pinned to submission order and
		// the two runs are comparable value-for-value.
		start := c.Sim.Now()
		for i := 0; i < values; i++ {
			c.Bcast(origin, types.Value(fmt.Sprintf("v%d", i)))
		}
		if !runUntil(c.Sim, 10*time.Millisecond, sim.Time(300*time.Second), func() bool { return allDelivered(n, values, c.Deliveries) }) {
			panic("E16: burst never fully delivered")
		}
		elapsed := time.Duration(c.Sim.Now() - start)
		digests := make([]string, n)
		for p := 0; p < n; p++ {
			h := sha256.New()
			for _, d := range c.Deliveries(types.ProcID(p)) {
				fmt.Fprintf(h, "%d:%s\n", d.From, d.Value)
			}
			digests[p] = hex.EncodeToString(h.Sum(nil))
		}
		return outcome{
			elapsed: elapsed,
			rate:    float64(values) / elapsed.Seconds(),
			digests: digests,
		}
	}

	base := run(false)
	fast := run(true)
	for _, r := range []struct {
		mode string
		o    outcome
	}{{"seed (lock-step)", base}, {"batched", fast}} {
		t.Rows = append(t.Rows, []string{
			r.mode, fmt.Sprintf("%d", values),
			r.o.elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", r.o.rate),
			r.o.digests[0][:16],
		})
	}

	for _, o := range []outcome{base, fast} {
		for p := 1; p < n; p++ {
			if o.digests[p] != o.digests[0] {
				t.Failures = append(t.Failures, fmt.Sprintf(
					"E16: node %d delivered a different order than node 0 (%s vs %s)",
					p, o.digests[p][:16], o.digests[0][:16]))
			}
		}
	}
	if base.digests[0] != fast.digests[0] {
		t.Failures = append(t.Failures, fmt.Sprintf(
			"E16: batched run reordered deliveries (digest %s vs seed %s)",
			fast.digests[0][:16], base.digests[0][:16]))
	}
	speedup := fast.rate / base.rate
	if speedup < 3 {
		t.Failures = append(t.Failures, fmt.Sprintf(
			"E16: batched throughput only %.2fx the seed path (floor 3x)", speedup))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("batched path delivers %.1fx the seed path's msgs/sec at lambda=%v", speedup, lambda),
		"identical digests at every node in both runs: batching changed only the timing, not the order")
	return t
}

package experiments

import (
	"fmt"
	"time"

	"repro/internal/failures"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/sweep"
	"repro/internal/types"
)

// BenchEntry is one scenario's machine-readable measurement: end-to-end
// throughput and delivery latency plus the full per-layer instrument
// snapshot, so a regression in any layer (extra token rounds, view churn,
// WAL amplification) is visible in a diff of two baseline files even when
// the end-to-end numbers barely move.
type BenchEntry struct {
	// Experiment names the table whose workload this scenario mirrors.
	Experiment string `json:"experiment"`
	Scenario   string `json:"scenario"`
	// VirtualNS is the simulated duration of the run; all throughput and
	// latency figures are in virtual time (deterministic for a given seed).
	VirtualNS  int64 `json:"virtual_ns"`
	Bcasts     int64 `json:"bcasts"`
	Deliveries int64 `json:"deliveries"`
	// DeliveriesPerSec is deliveries (summed over nodes) per virtual second.
	DeliveriesPerSec float64 `json:"deliveries_per_sec"`
	// DeliveryLatency is the bcast → TO-delivery distribution (the
	// to.deliver_latency histogram).
	DeliveryLatency obs.HistogramSummary            `json:"delivery_latency"`
	Counters        map[string]int64                `json:"counters"`
	Gauges          map[string]int64                `json:"gauges,omitempty"`
	Histograms      map[string]obs.HistogramSummary `json:"histograms"`
}

// BenchReport is the whole baseline file (BENCH_baseline.json).
type BenchReport struct {
	Seed    int64        `json:"seed"`
	Entries []BenchEntry `json:"entries"`
}

func benchEntry(id, scenario string, c *stack.Cluster, reg *obs.Registry) BenchEntry {
	snap := reg.Snapshot()
	virt := c.Sim.Now().Duration()
	e := BenchEntry{
		Experiment:      id,
		Scenario:        scenario,
		VirtualNS:       virt.Nanoseconds(),
		Bcasts:          snap.Counters["to.bcasts"],
		Deliveries:      snap.Counters["to.deliveries"],
		DeliveryLatency: snap.Histograms["to.deliver_latency"],
		Counters:        snap.Counters,
		Gauges:          snap.Gauges,
		Histograms:      snap.Histograms,
	}
	if secs := virt.Seconds(); secs > 0 {
		e.DeliveriesPerSec = float64(e.Deliveries) / secs
	}
	return e
}

// BenchBaseline runs the three bench scenarios — the E1 isolation workload,
// the E2 partition workload, and a compact E14-style crash/recovery
// workload — each on a freshly instrumented cluster, and returns the
// machine-readable report. Deterministic for a given seed: every number is
// in virtual time.
func BenchBaseline(seed int64) *BenchReport { return BenchBaselineWorkers(seed, 1) }

// BenchBaselineWorkers is BenchBaseline with the independent scenarios
// fanned across workers through the sweep engine. Each scenario runs on its
// own cluster, simulator, and registry, and the entries land in submission
// order, so the report is identical to the serial one for any worker count.
func BenchBaselineWorkers(seed int64, workers int) *BenchReport {
	scenarios := []func() BenchEntry{benchE1(seed), benchE2(seed), benchE14(seed), benchE16(seed)}
	return &BenchReport{
		Seed:    seed,
		Entries: sweep.Run(workers, len(scenarios), func(i int) BenchEntry { return scenarios[i]() }),
	}
}

// benchE1: majority isolation with pre- and post-cut traffic.
func benchE1(seed int64) func() BenchEntry {
	return func() BenchEntry {
		reg := obs.New()
		c, _, _ := isolationRun(seed, 5, 3, time.Millisecond, reg)
		return benchEntry("E1",
			"n=5 majority isolation, 11 values through the cut", c, reg)
	}
}

// benchE2: partition with a quorum side, traffic on both sides. The split is
// 4/2 (not the table's symmetric 3/3): TO deliveries only happen in a
// primary component, and the bench needs a live delivery stream.
func benchE2(seed int64) func() BenchEntry {
	return func() BenchEntry {
		reg := obs.New()
		n := 6
		delta := time.Millisecond
		c := stack.NewCluster(stack.Options{Seed: seed + int64(n), N: n, Delta: delta, Obs: reg})
		left := types.NewProcSet(c.Procs.Members()[:4]...)
		right := types.NewProcSet(c.Procs.Members()[4:]...)
		c.Sim.After(50*time.Millisecond, func() { c.Oracle.Partition(c.Procs, left, right) })
		for i := 0; i < 6; i++ {
			i := i
			c.Sim.After(time.Duration(300+50*i)*time.Millisecond, func() {
				c.Bcast(left.Members()[i%left.Size()], types.Value(fmt.Sprintf("l%d", i)))
				c.Bcast(right.Members()[i%right.Size()], types.Value(fmt.Sprintf("r%d", i)))
			})
		}
		if err := c.Sim.Run(sim.Time(5 * time.Second)); err != nil {
			panic(err)
		}
		return benchEntry("E2",
			"n=6 partition into 4/2, 6 values per side", c, reg)
	}
}

// benchE14 (compact): amnesia crash + WAL replay rejoin under λ = δ.
func benchE14(seed int64) func() BenchEntry {
	return func() BenchEntry {
		reg := obs.New()
		const n = 3
		delta := time.Millisecond
		victim := types.ProcID(1)
		c := stack.NewCluster(stack.Options{Seed: seed, N: n, Delta: delta,
			StorageLatency: delta, Obs: reg})
		for i := 0; i < 8; i++ {
			i := i
			c.Sim.After(30*time.Millisecond+time.Duration(i)*4*c.Cfg.Pi, func() {
				c.Bcast(types.ProcID(i%n), types.Value(fmt.Sprintf("v%d", i)))
			})
		}
		c.Sim.At(sim.Time(400*time.Millisecond), func() { c.Oracle.SetProc(victim, failures.Amnesia) })
		c.Sim.At(sim.Time(500*time.Millisecond), func() { c.Oracle.Heal(c.Procs) })
		// Post-heal probes so the rejoin shows up as deliveries at the victim.
		for i := 0; i < 8; i++ {
			i := i
			c.Sim.At(sim.Time(500*time.Millisecond).Add(time.Duration(i)*8*delta), func() {
				c.Bcast(0, types.Value(fmt.Sprintf("probe%d", i)))
			})
		}
		if err := c.Sim.Run(sim.Time(2 * time.Second)); err != nil {
			panic(err)
		}
		return benchEntry("E14",
			"n=3 amnesia crash + WAL-replay rejoin, λ=δ", c, reg)
	}
}

// benchE16: the E16 hot path — a single-origin burst through the batched
// stack (group commit, pipelined delivery, eager token rounds) at λ = 5δ.
// Tracks the throughput the batching work bought, so a regression in any
// batching layer moves this entry's deliveries_per_sec.
func benchE16(seed int64) func() BenchEntry {
	return func() BenchEntry {
		reg := obs.New()
		const n = 3
		delta := time.Millisecond
		c := stack.NewCluster(stack.Options{Seed: seed, N: n, Delta: delta,
			StorageLatency: 5 * delta, Obs: reg}.Batched())
		c.Sim.After(30*time.Millisecond, func() {
			for i := 0; i < 400; i++ {
				c.Bcast(0, types.Value(fmt.Sprintf("v%d", i)))
			}
		})
		for len(c.Deliveries(types.ProcID(n-1))) < 400 {
			if err := c.Sim.RunFor(10 * time.Millisecond); err != nil {
				panic(err)
			}
			if c.Sim.Now() > sim.Time(300*time.Second) {
				panic("benchE16: burst never fully delivered")
			}
		}
		return benchEntry("E16",
			"n=3 single-origin 400-value burst, batched hot path, λ=5δ", c, reg)
	}
}

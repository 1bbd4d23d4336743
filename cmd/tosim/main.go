// Command tosim runs one scenario of the TO service on the deterministic
// simulator and reports what happened: views formed, values ordered and
// delivered, property measurements against the analytic bounds, and
// (optionally) the full timed external trace as JSON lines for consumption
// by vscheck.
//
// Usage examples:
//
//	go run ./cmd/tosim -n 5 -msgs 10
//	go run ./cmd/tosim -n 6 -partition 0,1,2 -cut 50ms -heal 500ms -msgs 8
//	go run ./cmd/tosim -n 5 -partition 0,1,2 -trace trace.jsonl
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/props"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/types"
)

func main() {
	var (
		n         = flag.Int("n", 5, "number of processors")
		seed      = flag.Int64("seed", 1, "simulation seed")
		delta     = flag.Duration("delta", time.Millisecond, "good-channel delivery bound δ")
		msgs      = flag.Int("msgs", 10, "number of values to broadcast (round-robin)")
		partition = flag.String("partition", "", "comma-separated processor ids to isolate as one component (e.g. 0,1,2)")
		cutAt     = flag.Duration("cut", 50*time.Millisecond, "when to apply the partition")
		healAt    = flag.Duration("heal", 0, "when to heal (0 = never)")
		horizon   = flag.Duration("horizon", 3*time.Second, "virtual run length")
		traceOut  = flag.String("trace", "", "write the timed external trace as JSON lines to this file")
		verbose   = flag.Bool("v", false, "print every delivery")
	)
	flag.Parse()

	c := stack.NewCluster(stack.Options{Seed: *seed, N: *n, Delta: *delta, Log: &props.Log{}})

	var q types.ProcSet
	if *partition != "" {
		ids, err := parseIDs(*partition, *n)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bad -partition: %v\n", err)
			os.Exit(2)
		}
		q = types.NewProcSet(ids...)
		var rest []types.ProcID
		for _, p := range c.Procs.Members() {
			if !q.Contains(p) {
				rest = append(rest, p)
			}
		}
		other := types.NewProcSet(rest...)
		c.Sim.At(sim.Time(*cutAt), func() {
			fmt.Printf("%v: partition %v | %v\n", c.Sim.Now(), q, other)
			c.Oracle.Partition(c.Procs, q, other)
		})
		if *healAt > 0 {
			c.Sim.At(sim.Time(*healAt), func() {
				fmt.Printf("%v: heal\n", c.Sim.Now())
				c.Oracle.Heal(c.Procs)
			})
		}
	}

	for i := 0; i < *msgs; i++ {
		i := i
		at := time.Duration(10+i*25) * time.Millisecond
		c.Sim.At(sim.Time(at), func() {
			p := c.Procs.Members()[i%*n]
			c.Bcast(p, types.Value(fmt.Sprintf("msg-%d", i)))
		})
	}

	if err := c.Sim.Run(sim.Time(*horizon)); err != nil {
		fmt.Fprintf(os.Stderr, "simulation failed: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("\nsimulated %v in %d events; network: %+v\n",
		c.Sim.Now(), c.Sim.Steps(), c.Net.Stats())
	fmt.Println("\nfinal views:")
	for _, p := range c.Procs.Members() {
		v, ok := c.Node(p).VS().View()
		if !ok {
			fmt.Printf("  %v: ⊥\n", p)
		} else {
			fmt.Printf("  %v: %v\n", p, v)
		}
	}
	fmt.Println("\ndeliveries:")
	for _, p := range c.Procs.Members() {
		ds := c.Deliveries(p)
		fmt.Printf("  %v: %d values", p, len(ds))
		if *verbose {
			for _, d := range ds {
				fmt.Printf("  [%v %q from %v]", d.Time, string(d.Value), d.From)
			}
		}
		fmt.Println()
	}

	if !q.IsEmpty() && *healAt == 0 {
		b := c.Cfg.AnalyticB(q.Size())
		d := c.Cfg.AnalyticDImpl(q.Size())
		m := props.MeasureVS(c.Log, q, sim.Time(*cutAt))
		fmt.Printf("\nVS measurement for %v after the cut:\n", q)
		fmt.Printf("  converged=%t l'=%v (bound b=%v) safe-lag=%v (bound d_impl=%v)\n",
			m.Converged, m.LPrime, b, m.MaxSafeLag, d)
		to := props.MeasureTO(c.Log, q, sim.Time(*cutAt), m.LPrime)
		fmt.Printf("  TO send-lag=%v relay-lag=%v values=%d incomplete=%d\n",
			to.MaxSendLag, to.MaxRelayLag, to.ValuesMeasured, to.Incomplete)
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "create trace file: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := c.Log.WriteJSONL(f); err != nil {
			fmt.Fprintf(os.Stderr, "write trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("\nwrote %d trace events to %s\n", c.Log.Len(), *traceOut)
	}
}

// parseIDs parses a comma-separated list of distinct processor ids, each
// in [0, n).
func parseIDs(s string, n int) ([]types.ProcID, error) {
	var out []types.ProcID
	seen := make(map[int]bool)
	for _, part := range strings.Split(s, ",") {
		id, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("id %q: %w", part, err)
		}
		if id < 0 || id >= n {
			return nil, fmt.Errorf("id %d outside [0, %d)", id, n)
		}
		if seen[id] {
			return nil, fmt.Errorf("id %d named twice", id)
		}
		seen[id] = true
		out = append(out, types.ProcID(id))
	}
	return out, nil
}

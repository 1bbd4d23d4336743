// Benchmarks: one per experiment table (E1–E8; see DESIGN.md and
// EXPERIMENTS.md) plus micro-benchmarks of the load-bearing substrates.
// The experiment benches drive the same harness as cmd/experiments, so
// `go test -bench=.` regenerates every measured result; custom metrics
// surface the headline numbers (stabilization time, latency, throughput).
package pgcs_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/props"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/types"
)

// reportTable fails the benchmark if the experiment's claim did not
// validate, and reports a headline metric.
func reportTable(b *testing.B, t *experiments.Table) {
	b.Helper()
	if len(t.Failures) > 0 {
		b.Fatalf("%s failed validation:\n%v", t.ID, t.Failures)
	}
}

func BenchmarkE1_TOStabilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportTable(b, experiments.E1(int64(i+1)))
	}
}

func BenchmarkE2_VSStabilization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportTable(b, experiments.E2(int64(i+1)))
	}
}

func BenchmarkE3_PhaseDecomposition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportTable(b, experiments.E3(int64(i+1)))
	}
}

func BenchmarkE4_AnalyticBounds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportTable(b, experiments.E4(int64(i+1)))
	}
}

func BenchmarkE5_BaselineComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportTable(b, experiments.E5(int64(i+1)))
	}
}

func BenchmarkE6_SafetyCheckThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportTable(b, experiments.E6(int64(i+1)))
	}
}

func BenchmarkE7_VSConformance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportTable(b, experiments.E7(int64(i+1)))
	}
}

func BenchmarkE8_RSM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportTable(b, experiments.E8(int64(i+1)))
	}
}

func BenchmarkE9_CollectWindowAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportTable(b, experiments.E9(int64(i+1)))
	}
}

func BenchmarkE10_OneRoundMembership(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportTable(b, experiments.E10(int64(i+1)))
	}
}

func BenchmarkE11_TokenCompaction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportTable(b, experiments.E11(int64(i+1)))
	}
}

func BenchmarkE12_PrimaryModelComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportTable(b, experiments.E12(int64(i+1)))
	}
}

func BenchmarkE13_ModelChecking(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportTable(b, experiments.E13(int64(i+1)))
	}
}

func BenchmarkE14_CrashRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportTable(b, experiments.E14(int64(i+1)))
	}
}

// BenchmarkStackThroughput measures end-to-end ordered-broadcast
// throughput of the full stack (values fully delivered at every node per
// simulated second), for several cluster sizes.
func BenchmarkStackThroughput(b *testing.B) {
	for _, n := range []int{3, 5, 9} {
		n := n
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			c := stack.NewCluster(stack.Options{Seed: 1, N: n, Delta: time.Millisecond})
			if err := c.Sim.RunFor(50 * time.Millisecond); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			sent := 0
			for i := 0; i < b.N; i++ {
				c.Bcast(types.ProcID(i%n), types.Value(fmt.Sprintf("v%d", i)))
				sent++
				if sent%64 == 0 {
					if err := c.Sim.RunFor(200 * time.Millisecond); err != nil {
						b.Fatal(err)
					}
				}
			}
			if err := c.Sim.RunFor(2 * time.Second); err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			delivered := len(c.Deliveries(0))
			if delivered < b.N {
				b.Fatalf("delivered %d of %d", delivered, b.N)
			}
			perSec := float64(delivered) / (float64(c.Sim.Now()) / float64(time.Second))
			b.ReportMetric(perSec, "msgs/simsec")
		})
	}
}

// BenchmarkSteadyStateLatency measures the bcast→delivered-everywhere
// latency of a single value in an otherwise idle, stable group.
func BenchmarkSteadyStateLatency(b *testing.B) {
	for _, n := range []int{3, 5, 9} {
		n := n
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			var total time.Duration
			c := stack.NewCluster(stack.Options{Seed: 1, N: n, Delta: time.Millisecond})
			if err := c.Sim.RunFor(50 * time.Millisecond); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				start := c.Sim.Now()
				c.Bcast(0, types.Value(fmt.Sprintf("v%d", i)))
				want := i + 1
				for {
					if err := c.Sim.RunFor(time.Millisecond); err != nil {
						b.Fatal(err)
					}
					done := true
					for _, p := range c.Procs.Members() {
						if len(c.Deliveries(p)) < want {
							done = false
							break
						}
					}
					if done {
						break
					}
				}
				total += c.Sim.Now().Sub(start)
			}
			b.ReportMetric(float64(total.Milliseconds())/float64(b.N), "simms/msg")
		})
	}
}

// BenchmarkViewChange measures the virtual time to merge two halves after
// a heal — the stabilization cost an application pays per partition cycle.
func BenchmarkViewChange(b *testing.B) {
	for _, n := range []int{4, 8} {
		n := n
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			var total time.Duration
			for i := 0; i < b.N; i++ {
				c := stack.NewCluster(stack.Options{Seed: int64(i + 1), N: n, Delta: time.Millisecond, Log: &props.Log{}})
				left := types.NewProcSet(c.Procs.Members()[:n/2]...)
				right := types.NewProcSet(c.Procs.Members()[n/2:]...)
				c.Sim.At(sim.Time(20*time.Millisecond), func() {
					c.Oracle.Partition(c.Procs, left, right)
				})
				var heal sim.Time
				c.Sim.At(sim.Time(200*time.Millisecond), func() {
					c.Oracle.Heal(c.Procs)
					heal = c.Sim.Now()
				})
				if err := c.Sim.Run(sim.Time(2 * time.Second)); err != nil {
					b.Fatal(err)
				}
				m := props.MeasureVS(c.Log, c.Procs, heal)
				if !m.Converged {
					b.Fatalf("no merge at iteration %d", i)
				}
				total += m.LPrime
			}
			b.ReportMetric(float64(total.Milliseconds())/float64(b.N), "simms/merge")
		})
	}
}

// BenchmarkSimulator measures the raw event-queue throughput of the
// discrete-event core.
func BenchmarkSimulator(b *testing.B) {
	s := sim.New(1)
	var fire func()
	count := 0
	fire = func() {
		count++
		s.After(time.Microsecond, fire)
	}
	s.Defer(fire)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.RunFor(time.Microsecond); err != nil {
			b.Fatal(err)
		}
	}
}

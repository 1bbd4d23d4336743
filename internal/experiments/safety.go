package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/chaos"
	"repro/internal/failures"
	"repro/internal/ioa"
	"repro/internal/props"
	"repro/internal/rsm"
	"repro/internal/sim"
	"repro/internal/spec/tomachine"
	"repro/internal/spec/vsmachine"
	"repro/internal/stack"
	"repro/internal/types"
	"repro/internal/vstoto"
)

// E6 machine-checks Theorem 6.26 on randomized executions of the
// spec-level VStoTO-system: every Section 6 invariant and the full forward
// simulation to TO-machine are verified after every step.
func E6(seed int64) *Table {
	t := &Table{
		ID:      "E6",
		Title:   "Randomized safety check of VStoTO-system (spec composition)",
		Claim:   "Theorem 6.26: every trace of VStoTO-system is a trace of TO-machine (via invariants + forward simulation, checked per step)",
		Columns: []string{"n", "churn", "steps", "views created", "brcv events", "violations"},
	}
	for _, cfg := range []struct {
		n     int
		churn float64
		steps int
	}{
		{3, 0.02, 3000}, {4, 0.05, 3000}, {5, 0.10, 2000},
	} {
		procs := types.RangeProcSet(cfg.n)
		qs := types.Majorities{Universe: procs}
		vsAuto := vsmachine.NewAuto(procs, procs)
		components := []ioa.Automaton{vsAuto}
		procMap := make([]*vstoto.Proc, cfg.n)
		for _, p := range procs.Members() {
			a := vstoto.NewAuto(p, qs, procs)
			procMap[p] = a.P
			components = append(components, a)
		}
		exec := ioa.NewExecutor(seed+int64(cfg.n), components...)
		vsAuto.Proposer = vsmachine.RandomViewProposer(vsAuto, exec.Rand(), cfg.churn)
		var counter int
		exec.SetEnvironment(ioa.EnvironmentFunc(func(rng *rand.Rand) ioa.Action {
			counter++
			return tomachine.Bcast{A: types.Value(fmt.Sprintf("v%d", counter)), P: types.ProcID(rng.Intn(cfg.n))}
		}))
		sys := vstoto.NewSystem(vsAuto.M, procMap, qs)
		simrel := vstoto.NewSimulationChecker(sys)
		violations := 0
		exec.OnStep(func(ev ioa.TraceEvent) error {
			if err := sys.CheckInvariants(); err != nil {
				violations++
				return err
			}
			return simrel.AfterStep(ev.Act)
		})
		err := exec.Run(cfg.steps)
		if err != nil {
			violations++
			t.Failures = append(t.Failures, fmt.Sprintf("n=%d churn=%.2f: %v", cfg.n, cfg.churn, err))
		}
		brcvs := 0
		for _, ev := range exec.Trace() {
			if _, ok := ev.Act.(tomachine.Brcv); ok {
				brcvs++
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(cfg.n), fmt.Sprintf("%.2f", cfg.churn), fmt.Sprint(exec.Steps()),
			fmt.Sprint(len(vsAuto.M.Created)), fmt.Sprint(brcvs), fmt.Sprint(violations),
		})
	}
	return t
}

// E7 checks Lemma 4.2 conformance of the token-ring VS implementation
// under randomized fault injection: every recorded gpsnd/gprcv/safe/newview
// stream must be a trace of VS-machine.
func E7(seed int64) *Table {
	t := &Table{
		ID:      "E7",
		Title:   "VS implementation conformance under fault injection",
		Claim:   "Lemma 4.2: the implementation's traces satisfy integrity, no-duplication, no-reordering, per-view prefix total order, and safe semantics",
		Columns: []string{"n", "fault events", "VS events", "violations"},
	}
	for _, n := range []int{3, 5, 7} {
		c := stack.NewCluster(stack.Options{Seed: seed + int64(n), N: n, Delta: time.Millisecond, Log: &props.Log{}})
		rng := rand.New(rand.NewSource(seed + int64(n)*7))
		faults := 0
		// Random fault schedule: every 150–300ms, either partition into
		// random components, degrade random links to ugly, or heal.
		var schedule func()
		schedule = func() {
			defer c.Sim.After(time.Duration(150+rng.Intn(150))*time.Millisecond, schedule)
			faults++
			switch rng.Intn(3) {
			case 0:
				cutAt := 1 + rng.Intn(n-1)
				perm := rng.Perm(n)
				var left, right []types.ProcID
				for i, idx := range perm {
					if i < cutAt {
						left = append(left, types.ProcID(idx))
					} else {
						right = append(right, types.ProcID(idx))
					}
				}
				c.Oracle.Partition(c.Procs, types.NewProcSet(left...), types.NewProcSet(right...))
			case 1:
				for i := 0; i < 3; i++ {
					from := types.ProcID(rng.Intn(n))
					to := types.ProcID(rng.Intn(n))
					if from != to {
						c.Oracle.SetChannel(from, to, failures.Ugly)
					}
				}
			case 2:
				c.Oracle.Heal(c.Procs)
			}
		}
		c.Sim.After(100*time.Millisecond, schedule)
		var traffic func()
		msgNo := 0
		traffic = func() {
			defer c.Sim.After(30*time.Millisecond, traffic)
			msgNo++
			c.Bcast(types.ProcID(rng.Intn(n)), types.Value(fmt.Sprintf("t%d", msgNo)))
		}
		c.Sim.After(10*time.Millisecond, traffic)
		must(c.Sim.Run(sim.Time(4 * time.Second)))

		// The VS events must form a trace of VS-machine, and the TO events
		// one of TO-machine (Theorem 6.26 end to end).
		vs, _, err := chaos.Conformance(c.Log, c.Procs, c.Procs)
		violations := 0
		if err != nil {
			violations++
			t.Failures = append(t.Failures, fmt.Sprintf("n=%d: %v", n, err))
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(faults), fmt.Sprint(vs.Events()), fmt.Sprint(violations),
		})
	}
	return t
}

// E8 exercises the footnote-3 replicated memory under partition/heal
// cycles and verifies replica coherence throughout.
func E8(seed int64) *Table {
	t := &Table{
		ID:      "E8",
		Title:   "Sequentially consistent replicated memory (footnote 3)",
		Claim:   "replicas apply one common operation prefix; reads are local; minority writes recover on merge",
		Columns: []string{"n", "writes", "applied@slowest", "partitions", "coherent"},
	}
	for _, n := range []int{3, 5} {
		c := stack.NewCluster(stack.Options{Seed: seed + int64(n), N: n, Delta: time.Millisecond})
		mem := rsm.New(c)
		rng := rand.New(rand.NewSource(seed + int64(n)))
		writes, partitions := 0, 0
		var churn func()
		churn = func() {
			defer c.Sim.After(300*time.Millisecond, churn)
			if rng.Intn(2) == 0 {
				partitions++
				cutAt := 1 + rng.Intn(n-1)
				members := c.Procs.Members()
				c.Oracle.Partition(c.Procs,
					types.NewProcSet(members[:cutAt]...), types.NewProcSet(members[cutAt:]...))
			} else {
				c.Oracle.Heal(c.Procs)
			}
		}
		c.Sim.After(200*time.Millisecond, churn)
		var load func()
		load = func() {
			defer c.Sim.After(25*time.Millisecond, load)
			writes++
			p := types.ProcID(rng.Intn(n))
			mem.Write(p, fmt.Sprintf("k%d", rng.Intn(8)), fmt.Sprintf("v%d", writes), nil)
		}
		c.Sim.After(10*time.Millisecond, load)
		// End with a heal and a quiet tail so everything settles.
		c.Sim.After(3500*time.Millisecond, func() { c.Oracle.Heal(c.Procs) })
		must(c.Sim.Run(sim.Time(6 * time.Second)))
		coherent := "yes"
		if err := mem.CheckCoherence(); err != nil {
			coherent = "NO"
			t.Failures = append(t.Failures, fmt.Sprintf("n=%d: %v", n, err))
		}
		slowest := 1 << 30
		for _, p := range c.Procs.Members() {
			if a := mem.AppliedCount(p); a < slowest {
				slowest = a
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n), fmt.Sprint(writes), fmt.Sprint(slowest), fmt.Sprint(partitions), coherent,
		})
	}
	return t
}

package main

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/types"
)

func startBalancer(seed int64, n int) (*Balancer, *stack.Cluster) {
	c := stack.NewCluster(stack.Options{Seed: seed, N: n, Delta: time.Millisecond})
	return newBalancer(c), c
}

// pumpLoop re-evaluates ownership periodically, as an application would.
func pumpLoop(c *stack.Cluster, b *Balancer, every time.Duration) {
	var tick func()
	tick = func() {
		b.Pump()
		c.Sim.After(every, tick)
	}
	c.Sim.After(every, tick)
}

func TestTasksPartitionAcrossMembers(t *testing.T) {
	b, c := startBalancer(51, 4)
	pumpLoop(c, b, 20*time.Millisecond)
	const tasks = 20
	c.Sim.After(10*time.Millisecond, func() {
		for i := 0; i < tasks; i++ {
			b.Submit(types.ProcID(i%4), Task{Name: fmt.Sprintf("job-%d", i), Work: 5 * time.Millisecond})
		}
	})
	if err := c.Sim.Run(sim.Time(3 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if !b.AllDone() {
		t.Fatalf("not all tasks done; node0 sees %d/%d", b.DoneCount(0), tasks)
	}
	// In a stable view, each task executed exactly once, and work spread
	// over more than one member.
	owners := map[types.ProcID]int{}
	for name, execs := range b.Executed {
		if execs != 1 {
			t.Errorf("task %s executed %d times in a stable run", name, execs)
		}
		owners[b.Winner[name]]++
	}
	if len(owners) < 2 {
		t.Errorf("all tasks done by %v; expected spreading", owners)
	}
}

func TestResponsibilityFollowsViewChanges(t *testing.T) {
	b, c := startBalancer(53, 4)
	pumpLoop(c, b, 20*time.Millisecond)
	// Crash node 0 (and its links) before submitting: the remaining three
	// re-partition the work among themselves.
	c.Sim.After(30*time.Millisecond, func() {
		c.Oracle.Partition(c.Procs, types.NewProcSet(1, 2, 3), types.NewProcSet(0))
	})
	const tasks = 12
	c.Sim.After(200*time.Millisecond, func() {
		for i := 0; i < tasks; i++ {
			b.Submit(types.ProcID(1+i%3), Task{Name: fmt.Sprintf("job-%d", i), Work: 5 * time.Millisecond})
		}
	})
	if err := c.Sim.Run(sim.Time(3 * time.Second)); err != nil {
		t.Fatal(err)
	}
	for _, p := range []types.ProcID{1, 2, 3} {
		if got := b.DoneCount(p); got != tasks {
			t.Errorf("%v sees %d/%d done", p, got, tasks)
		}
	}
	for name := range b.Executed {
		if b.Winner[name] == 0 {
			t.Errorf("task %s won by the isolated node", name)
		}
	}
}

func TestPartitionDuplicatesAreReconciled(t *testing.T) {
	b, c := startBalancer(55, 5)
	pumpLoop(c, b, 20*time.Millisecond)
	const tasks = 10
	// Submit in a stable view so everyone knows the tasks, then partition
	// before anyone can complete (work takes longer than the cut delay).
	c.Sim.After(10*time.Millisecond, func() {
		for i := 0; i < tasks; i++ {
			b.Submit(types.ProcID(i%5), Task{Name: fmt.Sprintf("job-%d", i), Work: 300 * time.Millisecond})
		}
	})
	c.Sim.After(100*time.Millisecond, func() {
		c.Oracle.Partition(c.Procs, types.NewProcSet(0, 1, 2), types.NewProcSet(3, 4))
	})
	c.Sim.After(1500*time.Millisecond, func() { c.Oracle.Heal(c.Procs) })
	if err := c.Sim.Run(sim.Time(6 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if !b.AllDone() {
		t.Fatalf("not all tasks done after heal; node0 sees %d/%d", b.DoneCount(0), tasks)
	}
	// Both sides may have executed the same task; the winner per task is
	// nevertheless agreed (it is a position in the total order), and no
	// task is lost.
	total := 0
	for name, execs := range b.Executed {
		total += execs
		if _, ok := b.Winner[name]; !ok {
			t.Errorf("task %s has no agreed winner", name)
		}
	}
	if total < tasks {
		t.Errorf("executions %d < tasks %d", total, tasks)
	}
	t.Logf("executions=%d (duplicates across the partition: %d)", total, total-tasks)
}

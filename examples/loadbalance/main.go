// Command loadbalance demonstrates the view-aware work partitioning the
// paper's conclusion points to (dynamic load balancing over group
// communication): tasks announced through the totally ordered broadcast
// are claimed by the member whose rank in the current view matches the
// task's hash, so work re-partitions automatically when the membership
// changes — no coordinator, no handoff protocol.
//
// Run with: go run ./examples/loadbalance
package main

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/types"
)

func main() {
	cluster := pgcs.NewSimCluster(pgcs.Config{N: 4, Seed: 11, Delta: time.Millisecond})
	balancer := newBalancer(cluster.Stack())

	// Re-evaluate ownership every 20ms of virtual time.
	stack := cluster.Stack()
	var pump func()
	pump = func() {
		balancer.Pump()
		stack.Sim.After(20*time.Millisecond, pump)
	}
	stack.Sim.After(20*time.Millisecond, pump)

	fmt.Println("== submit 12 tasks into a 4-node group ==")
	for i := 0; i < 12; i++ {
		balancer.Submit(types.ProcID(i%4), Task{
			Name: fmt.Sprintf("render-frame-%02d", i),
			Work: 30 * time.Millisecond,
		})
	}
	must(cluster.Run(500 * time.Millisecond))
	report(balancer)

	fmt.Println("\n== node 3 is partitioned away; its tasks are re-owned ==")
	cluster.Partition(pgcs.NewProcSet(0, 1, 2), pgcs.NewProcSet(3))
	for i := 12; i < 20; i++ {
		balancer.Submit(types.ProcID(i%3), Task{
			Name: fmt.Sprintf("render-frame-%02d", i),
			Work: 30 * time.Millisecond,
		})
	}
	must(cluster.Run(time.Second))
	report(balancer)

	fmt.Println("\n== heal: node 3 rejoins and picks up its share again ==")
	cluster.Heal()
	for i := 20; i < 28; i++ {
		balancer.Submit(types.ProcID(i%4), Task{
			Name: fmt.Sprintf("render-frame-%02d", i),
			Work: 30 * time.Millisecond,
		})
	}
	must(cluster.Run(2 * time.Second))
	report(balancer)

	if balancer.AllDone() {
		fmt.Println("\nall 28 tasks completed with an agreed winner each — no task lost across two membership changes")
	}
}

func report(b *Balancer) {
	perOwner := map[types.ProcID]int{}
	for task, owner := range b.Winner {
		_ = task
		perOwner[owner]++
	}
	fmt.Printf("  completions so far by owner: ")
	for p := types.ProcID(0); p < 4; p++ {
		fmt.Printf("%v:%d  ", p, perOwner[p])
	}
	fmt.Println()
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

package stack

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/failures"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/types"
)

// TestBackpressureRejectsInMinority pins the graceful-degradation valve:
// a node cut into a minority component cannot deliver (no primary), so
// its accepted submissions pile up in pendingOwn until MaxPendingBcasts,
// past which Bcast rejects without touching the WAL; after the heal
// every accepted value is delivered everywhere, the backlog drains, and
// submissions flow again.
func TestBackpressureRejectsInMinority(t *testing.T) {
	reg := obs.New()
	const capacity = 3
	c := NewCluster(Options{Seed: 13, N: 5, Delta: time.Millisecond,
		Obs: reg, MaxPendingBcasts: capacity})
	majority := types.NewProcSet(0, 1, 2)
	minority := types.NewProcSet(3, 4)

	c.Sim.After(30*time.Millisecond, func() {
		c.Oracle.Partition(c.Procs, majority, minority)
	})

	// Well after the minority's view reconfigures: submit past the cap.
	var accepted, rejected int
	var stalledWhenFull, primaryOnMajority bool
	var pendingAtFull int
	c.Sim.After(400*time.Millisecond, func() {
		n := c.Node(3)
		for i := 0; i < capacity+2; i++ {
			if n.Bcast(types.Value(fmt.Sprintf("minority-%d", i))) {
				accepted++
			} else {
				rejected++
			}
		}
		stalledWhenFull = n.Stalled()
		pendingAtFull = n.PendingBcasts()
		primaryOnMajority = c.Node(0).Primary()
	})

	c.Sim.After(700*time.Millisecond, func() { c.Oracle.Heal(c.Procs) })
	// Post-heal probe: the drained node accepts again and the value makes
	// it into the total order.
	var acceptedAfterHeal bool
	c.Sim.After(2500*time.Millisecond, func() {
		acceptedAfterHeal = c.Node(3).Bcast("post-heal")
	})
	if err := c.Sim.Run(sim.Time(5 * time.Second)); err != nil {
		t.Fatal(err)
	}

	if accepted != capacity || rejected != 2 {
		t.Fatalf("accepted %d rejected %d, want %d/%d", accepted, rejected, capacity, 2)
	}
	if pendingAtFull != capacity {
		t.Errorf("pendingOwn at the cap = %d, want %d", pendingAtFull, capacity)
	}
	if !stalledWhenFull {
		t.Errorf("minority node not Stalled() while rejecting")
	}
	if !primaryOnMajority {
		t.Errorf("majority node lost Primary() — partition timing broken")
	}
	if !acceptedAfterHeal {
		t.Errorf("post-heal submission rejected: backlog never drained")
	}

	// Every accepted value (cap during the partition + 1 after the heal)
	// reaches every node; nothing rejected ever appears.
	want := capacity + 1
	for _, p := range c.Procs.Members() {
		if got := len(c.Deliveries(p)); got != want {
			t.Errorf("%v delivered %d values, want %d", p, got, want)
		}
	}
	if got := c.Node(3).PendingBcasts(); got != 0 {
		t.Errorf("pendingOwn after full drain = %d, want 0", got)
	}

	snap := reg.Snapshot()
	if got := snap.Counters["to.bcast_rejected"]; got != 2 {
		t.Errorf("to.bcast_rejected = %d, want 2", got)
	}
	if got := snap.Gauges["stack.pending_bcasts"]; got < int64(capacity) {
		t.Errorf("stack.pending_bcasts high-water = %d, want >= %d", got, capacity)
	}
}

// TestPendingRecomputedAcrossRecovery pins the restart arm of the
// backlog bound: an amnesia crash wipes volatile state, and recovery
// recomputes pendingOwn from the WAL as durable submissions minus the
// own-origin durable delivered prefix — so a rebooted node neither
// inherits a phantom backlog nor forgets a real one.
func TestPendingRecomputedAcrossRecovery(t *testing.T) {
	c := NewCluster(Options{Seed: 17, N: 3, Delta: time.Millisecond,
		MaxPendingBcasts: 8})
	// Deliver a few values end to end, then crash the submitter after the
	// backlog has fully drained.
	for i := 0; i < 3; i++ {
		i := i
		c.Sim.After(time.Duration(10+7*i)*time.Millisecond, func() {
			if !c.Node(0).Bcast(types.Value(fmt.Sprintf("v%d", i))) {
				t.Errorf("healthy submission %d rejected", i)
			}
		})
	}
	var pendingBeforeCrash = -1
	c.Sim.After(300*time.Millisecond, func() {
		pendingBeforeCrash = c.Node(0).PendingBcasts()
		c.Oracle.SetProc(0, failures.Amnesia)
	})
	c.Sim.After(400*time.Millisecond, func() { c.Oracle.SetProc(0, failures.Good) })
	var pendingAfterRecovery = -1
	c.Sim.After(900*time.Millisecond, func() {
		pendingAfterRecovery = c.Node(0).PendingBcasts()
		// The node is functional again: a fresh submission is accepted
		// and delivered cluster-wide.
		if !c.Node(0).Bcast("post-recovery") {
			t.Errorf("post-recovery submission rejected")
		}
	})
	if err := c.Sim.Run(sim.Time(3 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if pendingBeforeCrash != 0 {
		t.Fatalf("backlog not drained before crash: %d", pendingBeforeCrash)
	}
	if pendingAfterRecovery != 0 {
		t.Errorf("pendingOwn after recovery = %d, want 0 (recomputed from WAL)", pendingAfterRecovery)
	}
	if got := len(c.Deliveries(1)); got != 4 {
		t.Errorf("node 1 delivered %d values, want 4 (3 pre-crash + post-recovery)", got)
	}
	if got := c.Node(0).PendingBcasts(); got != 0 {
		t.Errorf("pendingOwn after post-recovery delivery = %d, want 0", got)
	}
}

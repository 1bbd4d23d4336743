package stack

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/failures"
	"repro/internal/net"
	"repro/internal/props"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/types"
)

// retainedDeliveries is the delivery storage a node holds for its client:
// the unflushed batch buffer and, in a simulated cluster, its history.
func retainedDeliveries(n *Node) int { return cap(n.batch) + len(n.c.history[n.id]) }

// TestDaemonRetainsNoDeliveries: a live node — the daemon's endpoint —
// keeps a delivered count but no delivery history, so after N and then 2N
// more values through it the delivery storage it retains has not grown.
func TestDaemonRetainsNoDeliveries(t *testing.T) {
	const n = 200
	s := sim.New(1)
	self := types.NewProcSet(0)
	streamed := 0
	node := NewLiveNode(LiveOptions{
		Self: 0, Universe: self, P0: self, Delta: time.Millisecond, Sim: s,
		Transport: net.New(s, failures.NewOracle(s.Now), net.Config{Delta: time.Millisecond}),
		OnDeliver: func(Delivery) { streamed++ },
	})
	sent := 0
	run := func(values int) int {
		for i := 0; i < values; i++ {
			if !node.Bcast(types.Value(fmt.Sprintf("v%d", sent))) {
				t.Fatalf("bcast %d refused", sent)
			}
			sent++
		}
		if err := s.Run(s.Now().Add(time.Second)); err != nil {
			t.Fatal(err)
		}
		if got := node.DeliveredCount(); got != sent || streamed != sent {
			t.Fatalf("delivered %d and streamed %d of %d", got, streamed, sent)
		}
		return retainedDeliveries(node)
	}
	first := run(n)
	if second := run(2 * n); second > first {
		t.Fatalf("the node retains %d deliveries' storage after %d values, %d after %d", first, n, second, 3*n)
	}
	if ds := node.c.Deliveries(0); ds != nil {
		t.Fatalf("a live node kept a history of %d deliveries", len(ds))
	}
}

// pausedRun submits 60 values at the given origins on a 3-node
// cluster with λ = δ/4, pauses node 1 (bad) while its delivery records
// are being written and, 1 ms later, with their write due but held at the
// paused device, calls then; it returns the cluster run to 3 s.
func pausedRun(t *testing.T, seed int64, origins []types.ProcID, then func(c *Cluster)) *Cluster {
	t.Helper()
	c := NewCluster(Options{Seed: seed, N: 3, Delta: time.Millisecond, StorageLatency: time.Millisecond / 4,
		Log: &props.Log{}})
	for i := 0; i < 60; i++ {
		i := i
		c.Sim.After(time.Duration(5+i/4)*time.Millisecond, func() {
			c.Bcast(origins[i%len(origins)], types.Value(fmt.Sprintf("v%d", i)))
		})
	}
	var watch func()
	watch = func() {
		if c.Node(1).deliverInFlight == 0 {
			c.Sim.After(10*time.Microsecond, watch)
			return
		}
		c.Oracle.SetProc(1, failures.Bad)
		c.Sim.After(time.Millisecond, func() { then(c) })
	}
	c.Sim.After(5*time.Millisecond, watch)
	if err := c.Sim.Run(sim.Time(3 * time.Second)); err != nil {
		t.Fatal(err)
	}
	return c
}

// unreleased counts a node's delivery records written but not yet
// released: still in flight at its device, or durable and queued.
func unreleased(n *Node) int { return n.deliverInFlight + len(n.ready) }

// TestReleaseCarriesRecordSeq: the origin seq a release traces is the one
// its delivery record was written with, carried from the record's write
// to its release. A node paused (bad) while its records are written holds
// several unreleased; once it is good again, at every node each origin's
// brcv lines count 1, 2, 3, … with no gap or repeat, and the node's WAL
// replays cleanly to one Deliver record per brcv line, equal in origin,
// seq and value.
func TestReleaseCarriesRecordSeq(t *testing.T) {
	queued := 0
	c := pausedRun(t, 7, []types.ProcID{0, 1, 2}, func(c *Cluster) {
		queued = unreleased(c.Node(1))
		c.Oracle.SetProc(1, failures.Good)
	})
	if queued < 2 {
		t.Fatalf("%d records unreleased while paused: the scenario is too weak", queued)
	}
	toConformance(t, c.Log)
	brcvs := make(map[types.ProcID][]props.Event)
	next := make(map[[2]types.ProcID]int)
	for _, e := range c.Log.Events {
		if e.Kind != props.TOBrcv {
			continue
		}
		brcvs[e.P] = append(brcvs[e.P], e)
		k := [2]types.ProcID{e.P, e.From}
		next[k]++
		if e.ValueSeq != next[k] {
			t.Fatalf("%v releases %q from %v with seq %d, want %d", e.P, e.Value, e.From, e.ValueSeq, next[k])
		}
	}
	for _, p := range c.Procs.Members() {
		snap := recovery.Replay(c.Node(p).WAL().Storage().Contents())
		if snap.Truncated != "" {
			t.Fatalf("%v's WAL does not replay: %s", p, snap.Truncated)
		}
		if len(snap.Delivered) != 60 || len(brcvs[p]) != 60 {
			t.Fatalf("%v holds %d Deliver records and traced %d brcv lines, want 60", p, len(snap.Delivered), len(brcvs[p]))
		}
		for i, d := range snap.Delivered {
			if e := brcvs[p][i]; d.From != e.From || d.FromSeq != e.ValueSeq || d.Value != e.Value {
				t.Fatalf("%v's record %d is %v#%d %q, its release %v#%d %q", p, i+1, d.From, d.FromSeq, d.Value, e.From, e.ValueSeq, e.Value)
			}
		}
	}
}

// TestCrashResetsReleaseQueue: delivery records written while their node
// is paused (bad) are not released, and an amnesia crash before it is good
// again leaves none queued, so the rebuilt node starts with no release it
// did not record itself. Every stream stays conformant — the victim's
// too: a paused node's device holds the write that falls due, so the
// crash tears it, and no record counts as delivered at replay that the
// client never saw. The survivors' streams are complete.
func TestCrashResetsReleaseQueue(t *testing.T) {
	queued := 0
	c := pausedRun(t, 5, []types.ProcID{0, 2}, func(c *Cluster) {
		victim := c.Node(1)
		queued = unreleased(victim)
		c.Oracle.SetProc(1, failures.Amnesia)
		if got := len(victim.ready); got != 0 {
			t.Errorf("the crash left %d records in the release queue", got)
		}
		c.Sim.After(4*time.Millisecond, func() { c.Oracle.SetProc(1, failures.Good) })
	})
	if queued == 0 {
		t.Fatal("no record was unreleased at the crash: the scenario is vacuous")
	}
	if got := c.Node(1).Recoveries(); got != 1 {
		t.Fatalf("victim recovered %d times, want 1", got)
	}
	toConformance(t, c.Log)
	for _, p := range []types.ProcID{0, 2} {
		if got := len(c.Deliveries(p)); got != 60 {
			t.Fatalf("%v delivered %d of 60", p, got)
		}
	}
	t.Logf("%d records were unreleased at the crash", queued)
}

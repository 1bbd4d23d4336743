package pgcs

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/stack"
)

func startFast(t *testing.T, n int) *LiveCluster {
	t.Helper()
	// 2s of virtual time per wall millisecond tick — fast tests.
	return startLive(stack.Options{Seed: 1, N: n, Delta: time.Millisecond}, 2000, time.Millisecond)
}

func TestLiveDeliveryReachesSubscribers(t *testing.T) {
	r := startFast(t, 3)
	defer r.Stop()
	sub := r.Subscribe()
	r.Bcast(0, "hello")

	deadline := time.After(5 * time.Second)
	seen := map[ProcID]bool{}
	for len(seen) < 3 {
		select {
		case d := <-sub:
			if d.Value != "hello" || d.From != 0 {
				t.Fatalf("unexpected delivery %+v", d)
			}
			seen[d.Node] = true
		case <-deadline:
			t.Fatalf("timed out; saw %v", seen)
		}
	}
}

func TestLiveDeliveriesSnapshotAndViews(t *testing.T) {
	r := startFast(t, 3)
	defer r.Stop()
	r.Bcast(1, "x")
	waitFor(t, func() bool { return len(r.Deliveries(2)) == 1 })
	ds := r.Deliveries(2)
	if ds[0].Value != "x" {
		t.Fatalf("deliveries = %v", ds)
	}
	views := r.Views()
	if len(views) != 3 {
		t.Fatalf("views = %v", views)
	}
	for p, v := range views {
		if v == "⊥" {
			t.Errorf("%v has no view", p)
		}
	}
	if r.Now() == 0 {
		t.Error("virtual time did not advance")
	}
	if r.Procs().Size() != 3 {
		t.Error("Procs wrong")
	}
}

func TestLiveCrashPartitionHeal(t *testing.T) {
	r := startFast(t, 3)
	defer r.Stop()
	r.Crash(2)
	r.Bcast(0, "while-down")
	waitFor(t, func() bool { return len(r.Deliveries(0)) == 1 })
	if len(r.Deliveries(2)) != 0 {
		t.Fatal("crashed node delivered")
	}
	r.Heal()
	waitFor(t, func() bool { return len(r.Deliveries(2)) == 1 })

	r.Partition(NewProcSet(0, 1), NewProcSet(2))
	r.Bcast(0, "majority-only")
	waitFor(t, func() bool { return len(r.Deliveries(0)) == 2 })
	if len(r.Deliveries(2)) > 1 {
		t.Fatal("minority delivered during partition")
	}
	r.Heal()
	waitFor(t, func() bool { return len(r.Deliveries(2)) == 2 })
}

func TestLiveLogSnapshot(t *testing.T) {
	r := startFast(t, 2)
	defer r.Stop()
	r.Bcast(0, "logged")
	waitFor(t, func() bool { return len(r.Deliveries(1)) == 1 })
	log := r.Log()
	if log.Len() == 0 || log.Initial == nil {
		t.Fatalf("log snapshot empty: %d events", log.Len())
	}
}

func TestStopClosesSubscribers(t *testing.T) {
	r := startFast(t, 2)
	sub := r.Subscribe()
	r.Stop()
	select {
	case _, open := <-sub:
		if open {
			// Drain any buffered deliveries, then expect close.
			for range sub {
			}
		}
	case <-time.After(2 * time.Second):
		t.Fatal("subscriber channel not closed after Stop")
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached before deadline")
}

// TestStopIsIdempotent calls Stop repeatedly, sequentially and from
// concurrent goroutines: every call must return (after shutdown completes)
// without panicking on the already-closed stop channel.
func TestStopIsIdempotent(t *testing.T) {
	r := startFast(t, 3)
	r.Stop()
	r.Stop() // second sequential call: must be a no-op, not a panic

	r = startFast(t, 3)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Stop()
		}()
	}
	wg.Wait()
	r.Stop() // and again after the concurrent burst
}

// TestStopDuringDelivery shuts down while the pacer is actively fanning
// deliveries out to a subscriber. The subscriber channel must get closed
// exactly once, and the drain must terminate.
func TestStopDuringDelivery(t *testing.T) {
	r := startFast(t, 3)
	sub := r.Subscribe()
	for i := 0; i < 20; i++ {
		r.Bcast(ProcID(i%3), Value(fmt.Sprintf("v%d", i)))
	}
	// Wait until deliveries are in flight, then stop from two goroutines
	// while a third keeps submitting.
	waitFor(t, func() bool { return len(r.Deliveries(0)) > 0 })
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			r.Bcast(0, "late")
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.Stop()
		}()
	}
	wg.Wait()
	<-done
	// The subscriber channel must now drain to a close, not hang.
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-sub:
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("subscriber channel never closed after Stop")
		}
	}
}

// TestNetStatsRaceUnderDriver is the regression test for the Stats() data
// race: application goroutines hammer NetStats (lock-free atomic reads)
// while the pacer goroutine advances the simulator and the network mutates
// its counters. Before the counters moved to atomics this was a read/write
// race on plain ints that -race reports immediately.
func TestNetStatsRaceUnderDriver(t *testing.T) {
	r := startFast(t, 3)
	defer r.Stop()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last int
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := r.NetStats()
				if s.Sent < last {
					t.Errorf("net.sent went backwards: %d -> %d", last, s.Sent)
					return
				}
				last = s.Sent
			}
		}()
	}
	// Keep the protocol busy so the counters are actually being written.
	for i := 0; i < 10; i++ {
		r.Bcast(ProcID(i%3), Value(fmt.Sprintf("r%d", i)))
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if s := r.NetStats(); s.Sent == 0 || s.Delivered == 0 {
		t.Fatalf("no traffic observed: %+v", s)
	}
}

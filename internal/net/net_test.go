package net

import (
	"testing"
	"time"

	"repro/internal/failures"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/types"
)

type fixture struct {
	sim    *sim.Sim
	oracle *failures.Oracle
	net    *Network
	got    map[types.ProcID][]Packet
}

func newFixture(cfg Config, n int) *fixture {
	s := sim.New(1)
	o := failures.NewOracle(s.Now)
	f := &fixture{sim: s, oracle: o, net: New(s, o, cfg), got: make(map[types.ProcID][]Packet)}
	for i := 0; i < n; i++ {
		p := types.ProcID(i)
		f.net.Register(p, func(pkt Packet) { f.got[p] = append(f.got[p], pkt) })
	}
	return f
}

func TestGoodChannelDeliversAtExactlyDelta(t *testing.T) {
	f := newFixture(Config{Delta: 2 * time.Millisecond}, 2)
	var at sim.Time
	f.net.Register(1, func(Packet) { at = f.sim.Now() })
	f.net.Send(0, 1, "hello")
	if err := f.sim.Run(sim.Never); err != nil {
		t.Fatal(err)
	}
	if at != sim.Time(2*time.Millisecond) {
		t.Fatalf("delivered at %v, want exactly 2ms (worst case, no jitter)", at)
	}
}

func TestJitterBoundedByDelta(t *testing.T) {
	f := newFixture(Config{Delta: 2 * time.Millisecond, Jitter: true}, 2)
	var times []sim.Time
	f.net.Register(1, func(Packet) { times = append(times, f.sim.Now()) })
	for i := 0; i < 200; i++ {
		f.net.Send(0, 1, i)
	}
	if err := f.sim.Run(sim.Never); err != nil {
		t.Fatal(err)
	}
	if len(times) != 200 {
		t.Fatalf("delivered %d, want 200", len(times))
	}
	for _, at := range times {
		if at <= 0 || at > sim.Time(2*time.Millisecond) {
			t.Fatalf("jittered delivery at %v outside (0, 2ms]", at)
		}
	}
}

func TestBadChannelDropsOneDirection(t *testing.T) {
	f := newFixture(Config{Delta: time.Millisecond}, 2)
	f.oracle.SetChannel(0, 1, failures.Bad)
	f.net.Send(0, 1, "dropped")
	f.net.Send(1, 0, "arrives")
	if err := f.sim.Run(sim.Never); err != nil {
		t.Fatal(err)
	}
	if len(f.got[1]) != 0 {
		t.Error("bad channel delivered")
	}
	if len(f.got[0]) != 1 {
		t.Error("reverse direction affected")
	}
	if st := f.net.Stats(); st.DroppedChannel != 1 || st.Delivered != 1 || st.Sent != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestBadProcessorNeitherSendsNorReceives(t *testing.T) {
	f := newFixture(Config{Delta: time.Millisecond}, 3)
	f.oracle.SetProc(1, failures.Bad)
	f.net.Send(0, 1, "to-dead")
	f.net.Send(1, 2, "from-dead")
	if err := f.sim.Run(sim.Never); err != nil {
		t.Fatal(err)
	}
	if len(f.got[1]) != 0 || len(f.got[2]) != 0 {
		t.Error("bad processor participated")
	}
	if st := f.net.Stats(); st.DroppedProc != 2 {
		t.Errorf("DroppedProc = %d, want 2", st.DroppedProc)
	}
}

func TestProcessorDyingInFlightDropsDelivery(t *testing.T) {
	f := newFixture(Config{Delta: 2 * time.Millisecond}, 2)
	f.net.Send(0, 1, "in-flight")
	f.sim.After(time.Millisecond, func() { f.oracle.SetProc(1, failures.Bad) })
	if err := f.sim.Run(sim.Never); err != nil {
		t.Fatal(err)
	}
	if len(f.got[1]) != 0 {
		t.Error("packet delivered to a processor that died in flight")
	}
	// The drop happens on the deliver-time path (the receiver was good at
	// send time), so it must be accounted as a processor drop, not counted
	// as delivered.
	if st := f.net.Stats(); st.DroppedProc != 1 || st.Delivered != 0 || st.Sent != 1 {
		t.Errorf("stats = %+v, want the in-flight drop counted as DroppedProc", st)
	}
}

func TestProcessorRevivingBeforeDeliveryReceives(t *testing.T) {
	// Receiver status is sampled again at the delivery instant: a receiver
	// that dies and recovers while the packet is in flight still gets it
	// (its state survived the crash, per the paper's crash model).
	f := newFixture(Config{Delta: 2 * time.Millisecond}, 2)
	f.net.Send(0, 1, "in-flight")
	f.sim.After(500*time.Microsecond, func() { f.oracle.SetProc(1, failures.Bad) })
	f.sim.After(time.Millisecond, func() { f.oracle.SetProc(1, failures.Good) })
	if err := f.sim.Run(sim.Never); err != nil {
		t.Fatal(err)
	}
	if len(f.got[1]) != 1 {
		t.Fatal("packet lost although the receiver recovered before the delivery instant")
	}
	if st := f.net.Stats(); st.Delivered != 1 || st.DroppedProc != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestChannelTurningBadInFlightStillDelivers(t *testing.T) {
	// Channel status is sampled at send time only (the paper: a packet sent
	// while the channel is good arrives within δ). Going bad mid-flight
	// must not retroactively drop it — only the receiver dying can.
	f := newFixture(Config{Delta: 2 * time.Millisecond}, 2)
	f.net.Send(0, 1, "committed")
	f.sim.After(time.Millisecond, func() { f.oracle.SetChannel(0, 1, failures.Bad) })
	if err := f.sim.Run(sim.Never); err != nil {
		t.Fatal(err)
	}
	if len(f.got[1]) != 1 {
		t.Fatal("good-channel send dropped by a mid-flight channel failure")
	}
	if st := f.net.Stats(); st.Delivered != 1 || st.DroppedChannel != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSnapshotSubWindowsActivity(t *testing.T) {
	f := newFixture(Config{Delta: time.Millisecond}, 2)
	f.net.Send(0, 1, "first")
	if err := f.sim.Run(sim.Never); err != nil {
		t.Fatal(err)
	}
	base := f.net.Snapshot()
	if base.Delivered != 1 {
		t.Fatalf("baseline = %+v", base)
	}
	f.oracle.SetChannel(0, 1, failures.Bad)
	f.net.Send(0, 1, "walled")
	f.oracle.SetChannel(0, 1, failures.Good)
	f.net.Send(0, 1, "second")
	f.net.Send(0, 1, "third")
	if err := f.sim.Run(sim.Never); err != nil {
		t.Fatal(err)
	}
	w := f.net.Snapshot().Sub(base)
	if w.Sent != 3 || w.Delivered != 2 || w.DroppedChannel != 1 {
		t.Errorf("window = %+v, want Sent 3 Delivered 2 DroppedChannel 1", w)
	}
}

func TestUglyChannelLossAndDelayBounds(t *testing.T) {
	f := newFixture(Config{Delta: time.Millisecond}, 2)
	f.oracle.SetChannel(0, 1, failures.Ugly)
	var times []sim.Time
	f.net.Register(1, func(Packet) { times = append(times, f.sim.Now()) })
	const total = 500
	for i := 0; i < total; i++ {
		f.net.Send(0, 1, i)
	}
	if err := f.sim.Run(sim.Never); err != nil {
		t.Fatal(err)
	}
	if len(times) == 0 || len(times) == total {
		t.Fatalf("ugly channel delivered %d of %d; want some lost, some delivered", len(times), total)
	}
	for _, at := range times {
		if at > sim.Time(10*time.Millisecond) {
			t.Fatalf("ugly delay %v exceeds 10δ", at)
		}
	}
	lost := f.net.Stats().DroppedUgly
	if lost+len(times) != total {
		t.Errorf("lost %d + delivered %d != %d", lost, len(times), total)
	}
	// Loss rate near the configured probability (loose bounds).
	if lost < total/4 || lost > 3*total/4 {
		t.Errorf("loss %d/%d far from 0.5", lost, total)
	}
}

func TestSelfSendLoopsBack(t *testing.T) {
	f := newFixture(Config{Delta: time.Millisecond}, 1)
	// Even with the channel to self conceptually absent, self-sends work.
	f.net.Send(0, 0, "self")
	if err := f.sim.Run(sim.Never); err != nil {
		t.Fatal(err)
	}
	if len(f.got[0]) != 1 || f.got[0][0].Payload != "self" {
		t.Fatalf("self delivery = %v", f.got[0])
	}
	if f.sim.Now() != 0 {
		t.Errorf("self delivery advanced time to %v", f.sim.Now())
	}
}

func TestBroadcastExcludesSender(t *testing.T) {
	f := newFixture(Config{Delta: time.Millisecond}, 4)
	f.net.Broadcast(0, types.RangeProcSet(4), "fanout")
	if err := f.sim.Run(sim.Never); err != nil {
		t.Fatal(err)
	}
	if len(f.got[0]) != 0 {
		t.Error("broadcast delivered to sender")
	}
	for _, p := range []types.ProcID{1, 2, 3} {
		if len(f.got[p]) != 1 {
			t.Errorf("receiver %v got %d packets", p, len(f.got[p]))
		}
	}
}

func TestUnregisteredDestinationDropped(t *testing.T) {
	f := newFixture(Config{Delta: time.Millisecond}, 1)
	f.net.Send(0, 9, "nobody")
	if err := f.sim.Run(sim.Never); err != nil {
		t.Fatal(err)
	}
	if f.net.Stats().Delivered != 0 {
		t.Error("delivery counted for unregistered destination")
	}
}

func TestNonPositiveDeltaPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero delta accepted")
		}
	}()
	s := sim.New(1)
	New(s, failures.NewOracle(s.Now), Config{})
}

func TestStatusSampledAtSendTime(t *testing.T) {
	// A packet sent while the channel is good arrives even if the channel
	// goes bad before the delivery instant — the paper's semantics.
	f := newFixture(Config{Delta: 2 * time.Millisecond}, 2)
	f.net.Send(0, 1, "sent-while-good")
	f.sim.After(time.Millisecond, func() { f.oracle.SetChannel(0, 1, failures.Bad) })
	if err := f.sim.Run(sim.Never); err != nil {
		t.Fatal(err)
	}
	if len(f.got[1]) != 1 {
		t.Fatal("packet sent on a good channel was lost when the channel later went bad")
	}
}

// TestStatsConcurrentWithSim is the race regression for Network.Stats():
// the simulation goroutine mutates the counters while another goroutine
// reads snapshots — exactly what happens when application code queries
// stats while the real-time runtime driver paces the simulator. Before the
// counters became atomics this was a data race (go test -race flagged it).
func TestStatsConcurrentWithSim(t *testing.T) {
	f := newFixture(Config{Delta: time.Millisecond}, 3)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				_ = f.net.Stats()
				_ = f.net.Snapshot()
			}
		}
	}()
	for i := 0; i < 2000; i++ {
		f.net.Send(types.ProcID(i%3), types.ProcID((i+1)%3), i)
		if err := f.sim.RunFor(time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	<-done
	st := f.net.Stats()
	if st.Sent != 2000 || st.Delivered != 2000 {
		t.Fatalf("stats = %+v, want 2000 sent and delivered", st)
	}
}

// TestObsCounters checks the obs threading: the layer's named counters and
// the delivery-delay histogram see the same traffic as Stats().
func TestObsCounters(t *testing.T) {
	reg := obs.New()
	f := newFixture(Config{Delta: time.Millisecond, Obs: reg}, 3)
	f.oracle.SetChannel(0, 2, failures.Bad)
	f.net.Send(0, 1, "a")
	f.net.Send(0, 2, "dropped")
	if err := f.sim.Run(sim.Never); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counters["net.sent"] != 2 || snap.Counters["net.delivered"] != 1 ||
		snap.Counters["net.dropped_channel"] != 1 {
		t.Fatalf("obs counters = %v", snap.Counters)
	}
	if h := snap.Histograms["net.delay"]; h.Count != 1 || h.MaxNS != int64(time.Millisecond) {
		t.Fatalf("net.delay = %+v, want one 1ms sample", h)
	}
}

package vsimpl

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/failures"
	"repro/internal/net"
	"repro/internal/obs"
	"repro/internal/props"
	"repro/internal/sim"
	"repro/internal/types"
)

// Demand-driven token rounds (see tokenHome): every hop takes
// exactly δ here (no jitter) and π is set far above a rotation, so any wait
// on the π spacing would show as a gross overshoot of the rotation-count
// bounds below.

const (
	demandDelta = time.Millisecond
	demandPi    = 50 * demandDelta
)

// demandCluster is newCluster with an obs registry and π = 50δ.
func demandCluster(n int) (*cluster, *obs.Registry) {
	reg := obs.New()
	cfg := DefaultConfig(demandDelta, n)
	cfg.Pi, cfg.Mu = demandPi, 2*demandPi
	cfg.Obs = reg
	return buildCluster(101, n, n, net.Config{Delta: demandDelta}, cfg), reg
}

func counter(reg *obs.Registry, name string) int64 { return reg.Counter(name).Value() }

// lastSafe returns when the last member emitted safe for id, and how many
// members did.
func (c *cluster) lastSafe(id check.MsgID) (sim.Time, int) {
	var last sim.Time
	count := 0
	for _, e := range c.log.Events {
		if e.Kind == props.VSSafe && e.Msg == id {
			count++
			if e.T > last {
				last = e.T
			}
		}
	}
	return last, count
}

// TestIdleRingLaunchesOncePerPi: with no traffic the token goes out exactly
// once per π, in a three-member view and in a singleton one, and no demand
// or announce launch ever fires — the ring does not spin.
func TestIdleRingLaunchesOncePerPi(t *testing.T) {
	for _, n := range []int{3, 1} {
		c, reg := demandCluster(n)
		// Launches at 0, π, …, 19π fall inside the window; 20π does not.
		if err := c.sim.Run(sim.Time(20*demandPi - demandDelta)); err != nil {
			t.Fatal(err)
		}
		if got := counter(reg, "vs.token_launches"); got != 20 {
			t.Errorf("n=%d: %d launches in 20π of idle time, want 20", n, got)
		}
		for _, k := range []string{"vs.token_requests", "vs.token_demand_launches", "vs.token_announce_rounds", "vs.token_timeouts"} {
			if got := counter(reg, k); got != 0 {
				t.Errorf("n=%d: idle ring counted %s = %d", n, k, got)
			}
		}
	}
}

// TestFollowerMessageSafeWithinThreeRotations: a message sent at the last
// member of the ring while the leader holds the token is safe everywhere
// within the request hop plus three rotations — one demand launch, two
// announce rounds — and then the ring is idle again.
func TestFollowerMessageSafeWithinThreeRotations(t *testing.T) {
	const n = 3
	c, reg := demandCluster(n)
	sendAt := sim.Time(2*demandPi + 10*demandDelta) // mid-hold: the token came home at 2π+3δ
	c.sim.At(sendAt, func() { c.nodes[2].Gpsnd("from-the-tail") })
	launchesBefore := int64(3) // 0, π, 2π
	if err := c.sim.Run(sendAt.Add(20 * demandDelta)); err != nil {
		t.Fatal(err)
	}
	c.conformance(t, c.procs)
	last, members := c.lastSafe(check.MsgID{Sender: 2, Seq: 1})
	if members != n {
		t.Fatalf("safe at %d members, want %d", members, n)
	}
	bound := demandDelta + 3*n*demandDelta
	if lag := last.Sub(sendAt); lag > bound {
		t.Errorf("safe everywhere after %v, want ≤ request + 3 rotations = %v (π = %v)", lag, bound, demandPi)
	}
	for k, want := range map[string]int64{
		"vs.token_requests":        1,
		"vs.token_demand_launches": 1,
		"vs.token_announce_rounds": 2,
		"vs.token_launches":        launchesBefore + 3,
	} {
		if got := counter(reg, k); got != want {
			t.Errorf("%s = %d, want %d", k, got, want)
		}
	}
}

// TestLeaderMessageLaunchesHeldToken: at the leader the demand launch needs
// no request, and one announce round finishes the job.
func TestLeaderMessageLaunchesHeldToken(t *testing.T) {
	const n = 3
	c, reg := demandCluster(n)
	sendAt := sim.Time(2*demandPi + 10*demandDelta)
	c.sim.At(sendAt, func() { c.nodes[0].Gpsnd("from-the-head") })
	if err := c.sim.Run(sendAt.Add(20 * demandDelta)); err != nil {
		t.Fatal(err)
	}
	c.conformance(t, c.procs)
	last, members := c.lastSafe(check.MsgID{Sender: 0, Seq: 1})
	if bound := 2 * n * demandDelta; members != n || last.Sub(sendAt) > bound {
		t.Errorf("safe at %d members after %v, want %d within two rotations = %v", members, last.Sub(sendAt), n, bound)
	}
	if req, dem, ann := counter(reg, "vs.token_requests"), counter(reg, "vs.token_demand_launches"), counter(reg, "vs.token_announce_rounds"); req != 0 || dem != 1 || ann != 1 {
		t.Errorf("requests/demand/announce = %d/%d/%d, want 0/1/1", req, dem, ann)
	}
}

// TestRequestWhileTokenCirculatesHonouredAtHomecoming: the request finds the
// token out (it has just passed the sender), so the leader remembers it and
// relaunches the moment the token is home, not π later.
func TestRequestWhileTokenCirculatesHonouredAtHomecoming(t *testing.T) {
	const n = 3
	c, reg := demandCluster(n)
	// The 2π launch passes node 1 at 2π+δ and is home at 2π+3δ; the request
	// sent at 2π+1.5δ reaches the leader at 2π+2.5δ.
	sendAt := sim.Time(2*demandPi + demandDelta + demandDelta/2)
	c.sim.At(sendAt, func() { c.nodes[1].Gpsnd("just-missed-it") })
	if err := c.sim.Run(sendAt.Add(20 * demandDelta)); err != nil {
		t.Fatal(err)
	}
	c.conformance(t, c.procs)
	last, members := c.lastSafe(check.MsgID{Sender: 1, Seq: 1})
	bound := 2*demandDelta + 3*n*demandDelta // rest of the rotation in flight, then three more
	if members != n || last.Sub(sendAt) > bound {
		t.Errorf("safe at %d members after %v, want %d within %v (π = %v)", members, last.Sub(sendAt), n, bound, demandPi)
	}
	if req, dem := counter(reg, "vs.token_requests"), counter(reg, "vs.token_demand_launches"); req != 1 || dem != 1 {
		t.Errorf("requests/demand launches = %d/%d, want 1/1", req, dem)
	}
}

// TestStaleAndDroppedRequestsAreHarmless: a request for another view, or
// one addressed to a member that is not the leader, launches nothing; a
// request lost on the wire costs the π wait it tried to skip and no more.
func TestStaleAndDroppedRequestsAreHarmless(t *testing.T) {
	const n = 3
	c, reg := demandCluster(n)
	cur, _ := c.nodes[0].View()
	at := sim.Time(2*demandPi + 10*demandDelta) // leader holding
	c.sim.At(at, func() {
		c.net.Send(1, 0, TokenRequestPkt{ViewID: types.ViewID{Epoch: 99, Proc: 1}})
		c.net.Send(0, 1, TokenRequestPkt{ViewID: cur.ID})
	})
	if err := c.sim.Run(at.Add(5 * demandDelta)); err != nil {
		t.Fatal(err)
	}
	if got := counter(reg, "vs.token_launches"); got != 3 {
		t.Fatalf("stale requests launched the token: %d launches, want 3", got)
	}

	// Drop node 1's request: its channel to the leader is bad for the instant
	// of the send (statuses are sampled at send time).
	sendAt := sim.Time(3*demandPi + 10*demandDelta)
	c.sim.At(sendAt, func() {
		c.oracle.SetChannel(1, 0, failures.Bad)
		c.nodes[1].Gpsnd("request-lost")
		c.oracle.SetChannel(1, 0, failures.Good)
	})
	if err := c.sim.Run(sim.Time(5 * demandPi)); err != nil {
		t.Fatal(err)
	}
	c.conformance(t, c.procs)
	last, members := c.lastSafe(check.MsgID{Sender: 1, Seq: 1})
	if members != n {
		t.Fatalf("safe at %d members, want %d", members, n)
	}
	if lag, bound := last.Sub(sendAt), demandPi+3*n*demandDelta; lag > bound {
		t.Errorf("safe everywhere after %v, want ≤ π + 3 rotations = %v", lag, bound)
	}
	if last < sim.Time(4*demandPi) {
		t.Errorf("safe at %v, before the 4π launch: the request was not dropped", last)
	}
	if req, dem, to := counter(reg, "vs.token_requests"), counter(reg, "vs.token_demand_launches"), counter(reg, "vs.token_timeouts"); req != 1 || dem != 0 || to != 0 {
		t.Errorf("requests/demand launches/timeouts = %d/%d/%d, want 1/0/0", req, dem, to)
	}
}

// TestDemandRingConformanceUnderFaults: jittered delays, load from every
// member, a partition and a heal, an ugly link that loses tokens and
// requests alike — the demand-driven ring keeps the Lemma 4.2 trace
// properties and keeps delivering.
func TestDemandRingConformanceUnderFaults(t *testing.T) {
	const n = 4
	c := buildCluster(91, n, n,
		net.Config{Delta: time.Millisecond, Jitter: true}, DefaultConfig(time.Millisecond, n))
	var i int
	var load func()
	load = func() {
		if c.sim.Now() > sim.Time(900*time.Millisecond) {
			return
		}
		defer c.sim.After(3*time.Millisecond, load)
		i++
		c.nodes[types.ProcID(i%n)].Gpsnd(fmt.Sprintf("j%d", i))
	}
	c.sim.After(5*time.Millisecond, load)
	c.sim.After(200*time.Millisecond, func() {
		c.oracle.Partition(c.procs, types.NewProcSet(0, 1), types.NewProcSet(2, 3))
	})
	c.sim.After(450*time.Millisecond, func() { c.oracle.Heal(c.procs) })
	c.sim.After(600*time.Millisecond, func() { c.oracle.SetChannel(1, 0, failures.Ugly) })
	c.sim.After(800*time.Millisecond, func() { c.oracle.Heal(c.procs) })
	if err := c.sim.Run(sim.Time(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	c.conformance(t, c.procs)
	m := props.MeasureVS(c.log, c.procs, sim.Time(800*time.Millisecond))
	if !m.Converged || m.IncompleteSafe > 0 {
		t.Fatalf("after the last heal: converged=%t, %d/%d messages missing safe", m.Converged, m.IncompleteSafe, m.MsgsMeasured)
	}
	for _, p := range c.procs.Members() {
		if c.nodes[p].Stats().Delivered < 100 {
			t.Errorf("%v delivered only %d messages", p, c.nodes[p].Stats().Delivered)
		}
	}
}

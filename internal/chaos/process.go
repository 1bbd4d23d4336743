package chaos

import (
	"time"

	"repro/internal/failures"
	"repro/internal/sim"
	"repro/internal/types"
)

// This file holds the process-level families: the adversary a signal
// injector can execute against real processes (internal/liverun) as well as
// the oracle against simulated ones — processor statuses bad, amnesia and
// good, a node's n−1 inbound pairs cut at one instant (its listener
// paused), and amnesia+good at one instant (a graceful restart). Timing is
// wall-scale, independent of δ and π, on whole milliseconds (the
// injector's grain), so the simulator runs the schedule the live cluster
// is struck with. Budgeted families keep at most (n−1)/2 nodes faulted at
// once; the quorum-loss ones exceed that on purpose. Every family heals
// everything strictly inside the window.

// QuorumLossThreshold returns the minimum number of simultaneously
// faulted nodes that makes a primary impossible: with k faulted, only
// n−k nodes remain mutually connected, and a primary view must contain
// a quorum (a majority, ⌊n/2⌋+1). k = ⌈n/2⌉ leaves ⌊n/2⌋ alive — one
// short of every quorum.
func QuorumLossThreshold(n int) int { return (n + 1) / 2 }

// Epoch is one interval of scheduled quorum loss: from Start at least
// QuorumLossThreshold(n) nodes are faulted simultaneously, until End
// heals enough of them that a quorum could re-form. Times are schedule
// offsets, like Event.Time.
type Epoch struct {
	Start sim.Time `json:"start_ns"`
	End   sim.Time `json:"end_ns"`
}

// LossEpochs replays the schedule's statuses and returns the intervals
// during which at least QuorumLossThreshold(n) nodes are faulted at once —
// no primary can exist inside them. A node is faulted while its processor
// is not good or every one of its inbound pairs is bad (it hears nothing).
// Same-instant events are applied together before the count is evaluated,
// so a heal tied with a fault never opens a zero-length epoch and a
// graceful cycle never counts. An epoch still open after the last event
// closes at that event's time (the runners' forced heal closes it in
// practice).
func LossEpochs(s failures.Schedule, n int) []Epoch {
	sorted := append(failures.Schedule(nil), s...)
	sorted.Sort()
	orc := failures.NewOracle(func() sim.Time { return 0 })
	faulted := func(v types.ProcID) bool {
		deaf := n > 1
		for q := types.ProcID(0); int(q) < n; q++ {
			deaf = deaf && (q == v || orc.Channel(q, v) == failures.Bad)
		}
		return deaf || orc.Proc(v) != failures.Good
	}
	var epochs []Epoch
	open := sim.Time(-1)
	for i := 0; i < len(sorted); {
		at := sorted[i].Time
		for ; i < len(sorted) && sorted[i].Time == at; i++ {
			orc.Apply(sorted[i])
		}
		k := 0
		for v := types.ProcID(0); int(v) < n; v++ {
			if faulted(v) {
				k++
			}
		}
		if open < 0 && k >= QuorumLossThreshold(n) {
			open = at
		} else if open >= 0 && k < QuorumLossThreshold(n) {
			if at > open {
				epochs = append(epochs, Epoch{Start: open, End: at})
			}
			open = -1
		}
	}
	if end := sorted.End(); open >= 0 && end > open {
		epochs = append(epochs, Epoch{Start: open, End: end})
	}
	return epochs
}

// inbound emits the listener pause (bad) or resume (good) of v: all n−1
// inbound pairs q→v change status at one instant. v still sends; it hears
// nothing.
func (g *gen) inbound(t time.Duration, v types.ProcID, s failures.Status) {
	for _, q := range g.all.Members() {
		if q != v {
			g.channel(t, q, v, s)
		}
	}
}

// victims picks k distinct nodes.
func (g *gen) victims(k int) []types.ProcID {
	out := make([]types.ProcID, k)
	for i, idx := range g.rng.Perm(g.spec.N)[:k] {
		out[i] = types.ProcID(idx)
	}
	return out
}

// dwell picks a duration in [lo, hi); a window too tight to leave room
// (hi <= lo) degenerates to lo rather than panicking.
func (g *gen) dwell(lo, hi time.Duration) time.Duration {
	if hi <= lo {
		return lo
	}
	return lo + time.Duration(g.rng.Int63n(int64(hi-lo)))
}

// waves is the shared shape of StopWaves (fault = Bad) and KillWaves
// (fault = Amnesia): each wave faults a random minority and heals it
// before the next wave starts.
func (g *gen) waves(fault failures.Status) {
	waves := 3 + g.rng.Intn(3)
	spacing := g.spec.Window / time.Duration(waves+1)
	maxDwell := 800 * time.Millisecond
	if half := spacing / 2; maxDwell > half {
		maxDwell = half
	}
	for i := 0; i < waves; i++ {
		start := time.Duration(i+1) * spacing
		k := 1 + g.rng.Intn(g.budget)
		for _, v := range g.victims(k) {
			at := start + g.dwell(0, 100*time.Millisecond)
			g.proc(at, v, fault)
			g.proc(at+g.dwell(200*time.Millisecond, maxDwell), v, failures.Good)
		}
	}
}

func (g *gen) rollingIsolation() {
	t := g.spec.Window / 8
	for t < g.spec.Window-1500*time.Millisecond {
		k := 1 + g.rng.Intn(g.budget)
		hold := g.dwell(400*time.Millisecond, time.Second)
		for _, v := range g.victims(k) {
			g.inbound(t, v, failures.Bad)
			g.inbound(t+hold, v, failures.Good)
		}
		t += hold + g.dwell(200*time.Millisecond, 500*time.Millisecond)
	}
}

func (g *gen) nestedIsolation() {
	w := g.spec.Window
	k1 := 1 + g.rng.Intn(max(1, g.budget/2))
	// The inner cut only exists if the budget leaves room beside the outer
	// one; at budget 1 (n=3) the shape degrades to a single held isolation.
	k2 := 0
	if g.budget > k1 {
		k2 = 1 + g.rng.Intn(g.budget-k1)
	}
	perm := g.victims(k1 + k2)
	s1, s2 := perm[:k1], perm[k1:]
	for _, v := range s1 {
		g.inbound(w/6, v, failures.Bad)
	}
	for _, v := range s2 {
		g.inbound(2*w/6, v, failures.Bad) // nested cut while s1 is still isolated
	}
	for _, v := range s2 {
		g.inbound(4*w/6, v, failures.Good) // heal inner-first
	}
	for _, v := range s1 {
		g.inbound(5*w/6, v, failures.Good)
	}
}

func (g *gen) flappingLinks() {
	w := g.spec.Window
	victims := 1 + g.rng.Intn(2)
	if victims > g.budget {
		victims = g.budget
	}
	for _, v := range g.victims(victims) {
		t := g.dwell(0, w/4)
		for t < w-time.Second {
			g.inbound(t, v, failures.Bad)
			t += g.dwell(150*time.Millisecond, 400*time.Millisecond)
			g.inbound(t, v, failures.Good)
			t += g.dwell(150*time.Millisecond, 400*time.Millisecond)
		}
	}
}

func (g *gen) asymmetricLinks() {
	w := g.spec.Window
	phases := 3 + g.rng.Intn(3)
	span := w / time.Duration(phases)
	for i := 0; i < phases; i++ {
		start := time.Duration(i) * span
		v := types.ProcID(g.rng.Intn(g.spec.N))
		at := start + g.dwell(0, span/4)
		g.inbound(at, v, failures.Bad) // v still sends; hears nothing
		g.inbound(start+span-100*time.Millisecond, v, failures.Good)
	}
}

func (g *gen) leaderKill() {
	w := g.spec.Window
	strikes := 2 + g.rng.Intn(2)
	spacing := w / time.Duration(strikes+1)
	// The leader is the minimum live processor; a strike always hits the
	// current leader and the restart lands before the next strike, so
	// leadership cascades down the ring one node at a time.
	downUntil := make([]time.Duration, g.spec.N)
	for i := 0; i < strikes; i++ {
		at := time.Duration(i+1) * spacing
		leader := -1
		for p := 0; p < g.spec.N; p++ {
			if downUntil[p] <= at {
				leader = p
				break
			}
		}
		if leader < 0 {
			continue
		}
		g.proc(at, types.ProcID(leader), failures.Amnesia)
		lo, hi := time.Second, spacing-500*time.Millisecond
		if hi <= lo {
			// Tight window: restart mid-gap so the next strike still finds
			// this node back up (one leader down at a time, always).
			lo, hi = spacing/4, spacing/2
		}
		up := at + g.dwell(lo, hi)
		g.proc(up, types.ProcID(leader), failures.Good)
		downUntil[leader] = up
	}
}

// rollingRestart cycles every node once: amnesia and good at one instant
// is an outage of zero length, which the live injector executes as an
// orderly STOP, exit and respawn.
func (g *gen) rollingRestart() {
	spacing := g.spec.Window / time.Duration(g.spec.N+1)
	for _, p := range g.all.Members() {
		at := time.Duration(p+1) * spacing
		g.proc(at, p, failures.Amnesia)
		g.proc(at, p, failures.Good)
	}
}

func (g *gen) mixedFaults() {
	w := g.spec.Window
	t := w / 8
	for t < w-1500*time.Millisecond {
		v := types.ProcID(g.rng.Intn(g.spec.N))
		hold := g.dwell(300*time.Millisecond, 900*time.Millisecond)
		switch g.rng.Intn(3) {
		case 0:
			g.proc(t, v, failures.Bad)
			g.proc(t+hold, v, failures.Good)
		case 1:
			g.proc(t, v, failures.Amnesia)
			g.proc(t+hold, v, failures.Good)
		case 2:
			g.inbound(t, v, failures.Bad)
			g.inbound(t+hold, v, failures.Good)
		}
		t += hold + g.dwell(200*time.Millisecond, 600*time.Millisecond)
	}
}

// minLossHold is the floor every quorum-loss generator keeps a loss
// epoch open for: long enough that the live runner's detector — which
// skips a grace interval after the loss onset (in-flight deliveries,
// minority view-formation catch-up, injection lag) and then needs at
// least two delivery samples — can attest the flatline even at the 4s
// minimum window.
const minLossHold = 1350 * time.Millisecond

// lossHold picks a loss-epoch hold in [lo, hi) but never below
// minLossHold.
func (g *gen) lossHold(lo, hi time.Duration) time.Duration {
	h := g.dwell(lo, hi)
	if h < minLossHold {
		h = minLossHold
	}
	return h
}

// lossSize picks how many nodes to fault at once: at least the
// quorum-loss threshold, at most n-1 (one node always survives so the
// cluster directory keeps a live daemon answering clients).
func (g *gen) lossSize() int {
	th := QuorumLossThreshold(g.spec.N)
	return th + g.rng.Intn(g.spec.N-th)
}

func (g *gen) majorityKill() {
	w := g.spec.Window
	at := w / 4
	vs := g.victims(g.lossSize())
	for _, v := range vs {
		g.proc(at+g.dwell(0, 100*time.Millisecond), v, failures.Amnesia)
	}
	up := at + g.lossHold(w/5, w/4)
	for i, v := range vs {
		g.proc(up+time.Duration(i)*g.dwell(80*time.Millisecond, 160*time.Millisecond), v, failures.Good)
	}
}

func (g *gen) totalPartition() {
	w := g.spec.Window
	at := w / 4
	for _, v := range g.all.Members() {
		g.inbound(at+g.dwell(0, 50*time.Millisecond), v, failures.Bad)
	}
	up := at + g.lossHold(w/5, w/4)
	for _, v := range g.all.Members() {
		g.inbound(up+g.dwell(0, 80*time.Millisecond), v, failures.Good)
	}
}

func (g *gen) cascadingFailure() {
	w := g.spec.Window
	k := QuorumLossThreshold(g.spec.N) + 1
	if k > g.spec.N-1 {
		k = g.spec.N - 1
	}
	vs := g.victims(k)
	t := w / 6
	stride := g.dwell(w/40, w/30)
	for _, v := range vs {
		g.proc(t, v, failures.Amnesia)
		t += stride
	}
	t += g.lossHold(w/6, w/5) // hold the cluster past the quorum-loss point
	for i := len(vs) - 1; i >= 0; i-- {
		g.proc(t, vs[i], failures.Good)
		t += stride
	}
}

func (g *gen) splitRejoin() {
	w := g.spec.Window
	rounds := 2
	if w < 6*time.Second {
		rounds = 1 // minLossHold-floored rounds would spill past a short window
	} else if w >= 16*time.Second {
		rounds += g.rng.Intn(2)
	}
	t := w / 8
	// Shape scales with the round count so the final rejoin always lands
	// well inside the window.
	holdLo, holdHi := w/time.Duration(4*rounds), w/time.Duration(3*rounds)
	gapLo, gapHi := w/time.Duration(5*rounds), w/time.Duration(4*rounds)
	for r := 0; r < rounds; r++ {
		vs := g.victims(g.lossSize())
		hold := g.lossHold(holdLo, holdHi)
		for _, v := range vs {
			g.inbound(t+g.dwell(0, 50*time.Millisecond), v, failures.Bad)
		}
		for _, v := range vs {
			g.inbound(t+hold+g.dwell(0, 80*time.Millisecond), v, failures.Good)
		}
		t += hold + g.dwell(gapLo, gapHi)
	}
}

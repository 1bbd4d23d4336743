package live

import (
	"fmt"
	"math/rand"
	"sort"
	"time"
)

// ScenarioKind names one family of live fault scenarios. These port the
// chaos campaign shapes (internal/chaos) from the simulated failure
// oracle to real faults against real processes: the Figure 4 statuses
// become signals (Bad→SIGSTOP, Good→SIGCONT, Amnesia→SIGKILL+restart)
// and channel faults become listener pauses (LPAUSE severs every inbound
// link to a node — a coarse one-way fault: the node still sends, but
// hears nothing).
type ScenarioKind string

const (
	// StopWaves: waves of minority SIGSTOPs with staggered SIGCONTs —
	// the live analogue of chaos.CrashRestart's Bad/Good waves. State
	// survives intact; only timing is violated.
	StopWaves ScenarioKind = "stop-waves"
	// KillWaves: waves of minority SIGKILLs with staggered restarts —
	// the live analogue of chaos.Amnesia. Every restart replays the WAL
	// file and rejoins one incarnation up.
	KillWaves ScenarioKind = "kill-waves"
	// RollingIsolation: a sequence of shifting minority LPAUSE sets,
	// each replacing the previous — the live analogue of
	// chaos.RollingPartition.
	RollingIsolation ScenarioKind = "rolling-isolation"
	// NestedIsolation: one set isolated, then a second inside the
	// remainder, healed inner-first — the live analogue of
	// chaos.NestedPartition.
	NestedIsolation ScenarioKind = "nested-isolation"
	// FlappingLinks: one or two victims toggling LPAUSE/LRESUME at
	// periods far below the membership timescale — chaos.Flapping.
	FlappingLinks ScenarioKind = "flapping-links"
	// AsymmetricLinks: per phase, one victim's listener is paused while
	// its own sends still flow — a genuinely one-way fault, rotated
	// across victims — chaos.Asymmetric.
	AsymmetricLinks ScenarioKind = "asymmetric-links"
	// LeaderKill: SIGKILL targeted at the lowest-ID live node (the ring
	// leader), restarted, then the strike cascades to the next leader —
	// chaos.LeaderCrash.
	LeaderKill ScenarioKind = "leader-kill"
	// RollingRestart: every node gracefully cycled (STOP, exit, respawn)
	// exactly once under load — the operational upgrade drill; no chaos
	// analogue, the oracle cannot express an orderly stop.
	RollingRestart ScenarioKind = "rolling-restart"
	// MixedFaults: the soak adversary — every few hundred ms one of
	// SIGSTOP / SIGKILL / LPAUSE against a random node, each healed
	// before the next strike — chaos.Mixed.
	MixedFaults ScenarioKind = "mixed-faults"

	// The quorum-loss families below deliberately exceed the ⌊(n-1)/2⌋
	// budget every other family respects: they fault enough nodes at once
	// that no quorum stays mutually connected, so no primary component can
	// exist until the heal. The paper's conditional-liveness claim (the
	// Section 6 lemma chain) only promises delivery after the pattern
	// stabilizes with a majority component; these scenarios drive the
	// before/after of that condition against real processes. Their
	// non-vacuity gate is inverted: instead of proving a primary survived,
	// the runner proves delivery flatlined during every loss epoch and
	// resumed within a bound after the final heal.

	// MajorityKill: one simultaneous SIGKILL wave large enough that no
	// quorum survives, held, then staggered restarts — correlated machine
	// failure taking the primary down with it.
	MajorityKill ScenarioKind = "majority-kill"
	// TotalPartition: every node's peer listener paused at once — a total
	// symmetric partition into n singleton components — healed together.
	TotalPartition ScenarioKind = "total-partition"
	// CascadingFailure: nodes SIGKILLed one at a time until just past the
	// quorum-loss threshold, held, then restarted in reverse order — the
	// slow-motion loss and recovery of a primary.
	CascadingFailure ScenarioKind = "cascading-failure"
	// SplitRejoinSoak: repeated rounds of isolating a different majority
	// subset (LPAUSE) and rejoining it — each round loses and re-forms the
	// primary.
	SplitRejoinSoak ScenarioKind = "split-rejoin"
)

// ScenarioKinds lists every scenario kind, in the matrix's fixed order.
var ScenarioKinds = []ScenarioKind{
	StopWaves, KillWaves, RollingIsolation, NestedIsolation, FlappingLinks,
	AsymmetricLinks, LeaderKill, RollingRestart, MixedFaults,
	MajorityKill, TotalPartition, CascadingFailure, SplitRejoinSoak,
}

// QuorumLossKinds lists the families that exceed the quorum budget.
var QuorumLossKinds = []ScenarioKind{
	MajorityKill, TotalPartition, CascadingFailure, SplitRejoinSoak,
}

// QuorumLoss reports whether this family deliberately exceeds the
// quorum budget (and is therefore gated on primary-loss detection and
// bounded recovery instead of the quorum-alive non-vacuity guard).
func (k ScenarioKind) QuorumLoss() bool {
	switch k {
	case MajorityKill, TotalPartition, CascadingFailure, SplitRejoinSoak:
		return true
	}
	return false
}

// QuorumLossThreshold returns the minimum number of simultaneously
// faulted nodes that makes a primary impossible: with k faulted, only
// n−k nodes remain mutually connected, and a primary view must contain
// a quorum (a majority, ⌊n/2⌋+1). k = ⌈n/2⌉ leaves ⌊n/2⌋ alive — one
// short of every quorum.
func QuorumLossThreshold(n int) int { return (n + 1) / 2 }

// ParseScenarioKind validates a scenario name.
func ParseScenarioKind(s string) (ScenarioKind, error) {
	for _, k := range ScenarioKinds {
		if string(k) == s {
			return k, nil
		}
	}
	return "", fmt.Errorf("live: unknown scenario %q (have %v)", s, ScenarioKinds)
}

// ActionKind is one injector primitive.
type ActionKind string

const (
	// ActSigstop / ActSigcont / ActSigkill deliver the signal to the
	// node's process (Proc.Pause/Resume/Kill).
	ActSigstop ActionKind = "sigstop"
	ActSigcont ActionKind = "sigcont"
	ActSigkill ActionKind = "sigkill"
	// ActRestart respawns a killed node's daemon (same WAL file, fresh
	// incarnation); a no-op if the node is alive.
	ActRestart ActionKind = "restart"
	// ActLpause / ActLresume toggle the node's peer listener over the
	// control connection (transport.TCP.PauseListener/ResumeListener):
	// paused, the node accepts no inbound peer traffic but still sends.
	ActLpause  ActionKind = "lpause"
	ActLresume ActionKind = "lresume"
	// ActCycle gracefully cycles the node: STOP over the control
	// connection, bounded wait for exit, respawn.
	ActCycle ActionKind = "cycle"
)

// Action is one timed fault primitive against one node.
type Action struct {
	AtMS int64      `json:"at_ms"` // offset from scenario start
	Node int        `json:"node"`
	Kind ActionKind `json:"kind"`
}

// Epoch is one interval of scheduled quorum loss: from StartMS at least
// QuorumLossThreshold(n) nodes are faulted simultaneously, until EndMS
// heals enough of them that a quorum could re-form. Times are schedule
// offsets, like Action.AtMS.
type Epoch struct {
	StartMS int64 `json:"start_ms"`
	EndMS   int64 `json:"end_ms"`
}

// Scenario is one replayable fault schedule: (Kind, Seed, N, WindowMS)
// regenerate Actions exactly, and Actions alone replay without the
// generator. The matrix runner writes the whole struct into each
// artifact. LossEpochs is derived from Actions (ComputeLossEpochs) and
// carried so the artifact records exactly which intervals the
// primary-loss detector guarded.
type Scenario struct {
	Kind       ScenarioKind `json:"kind"`
	Seed       int64        `json:"seed"`
	N          int          `json:"n"`
	WindowMS   int64        `json:"window_ms"`
	Actions    []Action     `json:"actions"`
	LossEpochs []Epoch      `json:"loss_epochs,omitempty"`
}

// ComputeLossEpochs replays the schedule and returns the intervals during
// which at least QuorumLossThreshold(n) nodes are faulted at once — no
// primary can exist inside them. A node counts as faulted while
// SIGSTOPped, SIGKILLed (until its restart action), or listener-paused;
// an ActCycle is a transient (sub-second graceful bounce) and does not
// count. Same-instant actions are applied together before the count is
// evaluated, so a heal tied with a fault never opens a zero-length
// epoch. An epoch still open after the last action closes at that
// action's time (generators never emit such schedules; the defensive
// heal sweep would close it in practice).
func ComputeLossEpochs(actions []Action, n int) []Epoch {
	sorted := append([]Action(nil), actions...)
	sortActions(sorted)
	threshold := QuorumLossThreshold(n)
	type state struct{ stopped, killed, paused bool }
	nodes := make([]state, n)
	faulted := func() int {
		k := 0
		for _, s := range nodes {
			if s.stopped || s.killed || s.paused {
				k++
			}
		}
		return k
	}
	var epochs []Epoch
	open := int64(-1)
	for i := 0; i < len(sorted); {
		at := sorted[i].AtMS
		for ; i < len(sorted) && sorted[i].AtMS == at; i++ {
			a := sorted[i]
			if a.Node < 0 || a.Node >= n {
				continue
			}
			s := &nodes[a.Node]
			switch a.Kind {
			case ActSigstop:
				s.stopped = true
			case ActSigcont:
				s.stopped = false
			case ActSigkill:
				s.killed = true
			case ActRestart:
				s.killed = false
			case ActLpause:
				s.paused = true
			case ActLresume:
				s.paused = false
			}
		}
		k := faulted()
		if open < 0 && k >= threshold {
			open = at
		} else if open >= 0 && k < threshold {
			if at > open {
				epochs = append(epochs, Epoch{StartMS: open, EndMS: at})
			}
			open = -1
		}
	}
	if open >= 0 && len(sorted) > 0 {
		if last := sorted[len(sorted)-1].AtMS; last > open {
			epochs = append(epochs, Epoch{StartMS: open, EndMS: last})
		}
	}
	return epochs
}

// GenerateScenario produces the fault schedule of the given kind,
// deterministically from (kind, seed, n, window). The budgeted families
// keep the concurrently-faulted node count at or below (n-1)/2, so a
// strict majority stays mutually connected throughout — the primary
// component survives and the run cannot be vacuous by construction. The
// quorum-loss families (k.QuorumLoss()) invert that: they push past the
// threshold on purpose and record the resulting LossEpochs for the
// primary-loss detector. Every generator emits every heal strictly
// inside the window (the runner adds a defensive heal sweep after it
// regardless).
func GenerateScenario(kind ScenarioKind, seed int64, n int, window time.Duration) (Scenario, error) {
	if n < 3 {
		return Scenario{}, fmt.Errorf("live: scenarios need n >= 3, have %d", n)
	}
	if window < 2*time.Second {
		return Scenario{}, fmt.Errorf("live: scenario window %v too short (need >= 2s)", window)
	}
	if kind.QuorumLoss() && window < 4*time.Second {
		// The loss epoch must outlast the detector's grace interval plus at
		// least two sampling periods, and the heal still has to land inside
		// the window; below 4s the shapes can't fit.
		return Scenario{}, fmt.Errorf("live: quorum-loss scenario %s needs window >= 4s, have %v", kind, window)
	}
	g := &sgen{
		rng:    rand.New(rand.NewSource(seed)),
		n:      n,
		window: window,
		budget: (n - 1) / 2,
	}
	switch kind {
	case StopWaves:
		g.waves(ActSigstop, ActSigcont)
	case KillWaves:
		g.waves(ActSigkill, ActRestart)
	case RollingIsolation:
		g.rollingIsolation()
	case NestedIsolation:
		g.nestedIsolation()
	case FlappingLinks:
		g.flappingLinks()
	case AsymmetricLinks:
		g.asymmetricLinks()
	case LeaderKill:
		g.leaderKill()
	case RollingRestart:
		g.rollingRestart()
	case MixedFaults:
		g.mixedFaults()
	case MajorityKill:
		g.majorityKill()
	case TotalPartition:
		g.totalPartition()
	case CascadingFailure:
		g.cascadingFailure()
	case SplitRejoinSoak:
		g.splitRejoin()
	default:
		return Scenario{}, fmt.Errorf("live: unknown scenario %q", kind)
	}
	sortActions(g.out)
	return Scenario{
		Kind: kind, Seed: seed, N: n,
		WindowMS:   window.Milliseconds(),
		Actions:    g.out,
		LossEpochs: ComputeLossEpochs(g.out, n),
	}, nil
}

type sgen struct {
	rng    *rand.Rand
	n      int
	window time.Duration
	budget int // max concurrently faulted nodes: (n-1)/2
	out    []Action
}

// act emits one action, clamped strictly inside the window.
func (g *sgen) act(t time.Duration, node int, kind ActionKind) {
	if t < 0 {
		t = 0
	}
	if t >= g.window {
		t = g.window - time.Millisecond
	}
	g.out = append(g.out, Action{AtMS: t.Milliseconds(), Node: node, Kind: kind})
}

// sortActions orders actions by time, stably: same-instant actions keep
// their emission order (heals before the next wave's faults when tied).
func sortActions(a []Action) {
	sort.SliceStable(a, func(i, j int) bool { return a[i].AtMS < a[j].AtMS })
}

// victims picks k distinct nodes.
func (g *sgen) victims(k int) []int {
	return g.rng.Perm(g.n)[:k]
}

// dwell picks a duration in [lo, hi); a window too tight to leave room
// (hi <= lo) degenerates to lo rather than panicking.
func (g *sgen) dwell(lo, hi time.Duration) time.Duration {
	if hi <= lo {
		return lo
	}
	return lo + time.Duration(g.rng.Int63n(int64(hi-lo)))
}

// waves is the shared shape of StopWaves and KillWaves: each wave faults
// a random minority, heals it before the next wave starts.
func (g *sgen) waves(fault, heal ActionKind) {
	waves := 3 + g.rng.Intn(3)
	spacing := g.window / time.Duration(waves+1)
	maxDwell := 800 * time.Millisecond
	if half := spacing / 2; maxDwell > half {
		maxDwell = half
	}
	for i := 0; i < waves; i++ {
		start := time.Duration(i+1) * spacing
		k := 1 + g.rng.Intn(g.budget)
		for _, v := range g.victims(k) {
			at := start + g.dwell(0, 100*time.Millisecond)
			g.act(at, v, fault)
			g.act(at+g.dwell(200*time.Millisecond, maxDwell), v, heal)
		}
	}
}

func (g *sgen) rollingIsolation() {
	t := g.window / 8
	for t < g.window-1500*time.Millisecond {
		k := 1 + g.rng.Intn(g.budget)
		hold := g.dwell(400*time.Millisecond, time.Second)
		for _, v := range g.victims(k) {
			g.act(t, v, ActLpause)
			g.act(t+hold, v, ActLresume)
		}
		t += hold + g.dwell(200*time.Millisecond, 500*time.Millisecond)
	}
}

func (g *sgen) nestedIsolation() {
	w := g.window
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
		g.act(w/6, v, ActLpause)
	}
	for _, v := range s2 {
		g.act(2*w/6, v, ActLpause) // nested cut while s1 is still isolated
	}
	for _, v := range s2 {
		g.act(4*w/6, v, ActLresume) // heal inner-first
	}
	for _, v := range s1 {
		g.act(5*w/6, v, ActLresume)
	}
}

func (g *sgen) flappingLinks() {
	w := g.window
	victims := 1 + g.rng.Intn(2)
	if victims > g.budget {
		victims = g.budget
	}
	for _, v := range g.victims(victims) {
		t := g.dwell(0, w/4)
		for t < w-time.Second {
			g.act(t, v, ActLpause)
			t += g.dwell(150*time.Millisecond, 400*time.Millisecond)
			g.act(t, v, ActLresume)
			t += g.dwell(150*time.Millisecond, 400*time.Millisecond)
		}
	}
}

func (g *sgen) asymmetricLinks() {
	w := g.window
	phases := 3 + g.rng.Intn(3)
	span := w / time.Duration(phases)
	for i := 0; i < phases; i++ {
		start := time.Duration(i) * span
		v := g.rng.Intn(g.n)
		at := start + g.dwell(0, span/4)
		g.act(at, v, ActLpause) // v still sends; hears nothing
		g.act(start+span-100*time.Millisecond, v, ActLresume)
	}
}

func (g *sgen) leaderKill() {
	w := g.window
	strikes := 2 + g.rng.Intn(2)
	spacing := w / time.Duration(strikes+1)
	// The leader is the minimum live processor; a strike always hits the
	// current leader and the restart lands before the next strike, so
	// leadership cascades down the ring one node at a time.
	downUntil := make([]time.Duration, g.n)
	for i := 0; i < strikes; i++ {
		at := time.Duration(i+1) * spacing
		leader := -1
		for p := 0; p < g.n; p++ {
			if downUntil[p] <= at {
				leader = p
				break
			}
		}
		if leader < 0 {
			continue
		}
		g.act(at, leader, ActSigkill)
		lo, hi := time.Second, spacing-500*time.Millisecond
		if hi <= lo {
			// Tight window: restart mid-gap so the next strike still finds
			// this node back up (one leader down at a time, always).
			lo, hi = spacing/4, spacing/2
		}
		up := at + g.dwell(lo, hi)
		g.act(up, leader, ActRestart)
		downUntil[leader] = up
	}
}

func (g *sgen) rollingRestart() {
	spacing := g.window / time.Duration(g.n+1)
	for i := 0; i < g.n; i++ {
		g.act(time.Duration(i+1)*spacing, i, ActCycle)
	}
}

// minLossHold is the floor every quorum-loss generator keeps a loss
// epoch open for: long enough that the runner's detector — which skips
// a grace interval after the loss onset (in-flight deliveries, minority
// view-formation catch-up, injection lag) and then needs at least two
// delivery samples — can attest the flatline even at the 4s minimum
// window.
const minLossHold = 1350 * time.Millisecond

// lossHold picks a loss-epoch hold in [lo, hi) but never below
// minLossHold.
func (g *sgen) lossHold(lo, hi time.Duration) time.Duration {
	h := g.dwell(lo, hi)
	if h < minLossHold {
		h = minLossHold
	}
	return h
}

// lossSize picks how many nodes to fault at once: at least the
// quorum-loss threshold, at most n-1 (one node always survives so the
// cluster directory keeps a live daemon answering clients).
func (g *sgen) lossSize() int {
	th := QuorumLossThreshold(g.n)
	return th + g.rng.Intn(g.n-th)
}

func (g *sgen) majorityKill() {
	w := g.window
	at := w / 4
	vs := g.victims(g.lossSize())
	for _, v := range vs {
		g.act(at+g.dwell(0, 100*time.Millisecond), v, ActSigkill)
	}
	up := at + g.lossHold(w/5, w/4)
	for i, v := range vs {
		g.act(up+time.Duration(i)*g.dwell(80*time.Millisecond, 160*time.Millisecond), v, ActRestart)
	}
}

func (g *sgen) totalPartition() {
	w := g.window
	at := w / 4
	for v := 0; v < g.n; v++ {
		g.act(at+g.dwell(0, 50*time.Millisecond), v, ActLpause)
	}
	up := at + g.lossHold(w/5, w/4)
	for v := 0; v < g.n; v++ {
		g.act(up+g.dwell(0, 80*time.Millisecond), v, ActLresume)
	}
}

func (g *sgen) cascadingFailure() {
	w := g.window
	k := QuorumLossThreshold(g.n) + 1
	if k > g.n-1 {
		k = g.n - 1
	}
	vs := g.victims(k)
	t := w / 6
	stride := g.dwell(w/40, w/30)
	for _, v := range vs {
		g.act(t, v, ActSigkill)
		t += stride
	}
	t += g.lossHold(w/6, w/5) // hold the cluster past the quorum-loss point
	for i := len(vs) - 1; i >= 0; i-- {
		g.act(t, vs[i], ActRestart)
		t += stride
	}
}

func (g *sgen) splitRejoin() {
	w := g.window
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
			g.act(t+g.dwell(0, 50*time.Millisecond), v, ActLpause)
		}
		for _, v := range vs {
			g.act(t+hold+g.dwell(0, 80*time.Millisecond), v, ActLresume)
		}
		t += hold + g.dwell(gapLo, gapHi)
	}
}

func (g *sgen) mixedFaults() {
	w := g.window
	t := w / 8
	for t < w-1500*time.Millisecond {
		v := g.rng.Intn(g.n)
		hold := g.dwell(300*time.Millisecond, 900*time.Millisecond)
		switch g.rng.Intn(3) {
		case 0:
			g.act(t, v, ActSigstop)
			g.act(t+hold, v, ActSigcont)
		case 1:
			g.act(t, v, ActSigkill)
			g.act(t+hold, v, ActRestart)
		case 2:
			g.act(t, v, ActLpause)
			g.act(t+hold, v, ActLresume)
		}
		t += hold + g.dwell(200*time.Millisecond, 600*time.Millisecond)
	}
}

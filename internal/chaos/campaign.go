// Package chaos is the adversarial fault-injection harness: it generates
// typed campaigns of failure schedules against a stack.Cluster, runs each
// under continuous traffic with full TO/VS trace conformance plus a
// recovery-liveness check, shrinks any failing schedule to a minimal
// counterexample by delta debugging, and serializes counterexamples into
// JSON artifacts that cmd/chaos can replay byte for byte.
//
// failures.Schedule is the one fault vocabulary. Nine oracle-level
// campaigns use all of it; thirteen process-level ones (process.go) use
// the part a signal injector can execute, and internal/liverun injects
// exactly their schedules into real pgcsd processes — so a live scenario
// is rerun, replayed and shrunk here from its (campaign, seed, n,
// window). Nothing here is linked by the daemon itself.
//
// Everything is deterministic: a campaign is a pure function of its type,
// seed, and spec; a run is a pure function of its Config. The same seed
// therefore always produces the same schedule, the same trace, the same
// verdict, and the same artifact bytes — which is what makes a CI failure
// reproducible from the artifact alone.
package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/failures"
	"repro/internal/sim"
	"repro/internal/types"
	"repro/internal/vsimpl"
)

// CampaignType names one family of adversarial failure schedules.
type CampaignType string

// The oracle-level campaign families. Each stresses a different hypothesis
// of the paper's conditional properties (Figures 5 and 7): what survives
// crashes, partitions, timing-free (ugly) links, and combinations thereof.
// Their timing scales with δ and π.
const (
	// CrashRestart: waves of processor crashes and staggered restarts,
	// sometimes leaving processors down until the final heal.
	CrashRestart CampaignType = "crash-restart"
	// RollingPartition: a sequence of random partitions, each replacing
	// the previous one, with occasional full heals between.
	RollingPartition CampaignType = "rolling-partition"
	// NestedPartition: a partition whose larger side is sub-partitioned,
	// then healed inner-first — views must shrink and re-grow monotonically.
	NestedPartition CampaignType = "nested-partition"
	// Flapping: a few links and one processor toggle good↔bad at periods
	// close to δ, far faster than membership can stabilize.
	Flapping CampaignType = "flapping"
	// Asymmetric: one-way ugly/bad links (a→b afflicted while b→a stays
	// good), rotated across pairs — the "ugly" timing-free regime.
	Asymmetric CampaignType = "asymmetric"
	// LeaderCrash: crashes targeted at the current ring leader (the
	// minimum live processor), timed just before token-launch instants,
	// cascading leadership down the ring.
	LeaderCrash CampaignType = "leader-crash"
	// Mixed: the soak-test adversary — every 200–500ms one of partition /
	// crash / ugly links / heal, uniformly at random.
	Mixed CampaignType = "mixed"
	// Amnesia: waves of amnesia crashes (failures.Amnesia — stop plus loss
	// of all volatile state), occasionally wiping the whole universe at
	// once, with staggered restarts that force a WAL replay and rejoin.
	Amnesia CampaignType = "amnesia"
	// TornWrite: rapid-fire amnesia strikes under positive stable-storage
	// write latency, so crashes land while WAL records are in flight and
	// tear the log's tail (the runner defaults StorageLatency to δ/4 for
	// this campaign).
	TornWrite CampaignType = "torn-write"
)

// The process-level families (process.go): the part of the adversary that
// signals and listener controls can execute against real processes, so
// internal/liverun injects exactly these schedules and the simulator runs
// them too. All but RollingRestart draw from the seed.
const (
	// StopWaves: waves of minority stops (bad_p, live SIGSTOP) with
	// staggered resumes. State survives intact; only timing is violated.
	StopWaves CampaignType = "stop-waves"
	// KillWaves: waves of minority amnesia crashes (live SIGKILL) with
	// staggered restarts. Every restart replays the WAL and rejoins one
	// incarnation up.
	KillWaves CampaignType = "kill-waves"
	// RollingIsolation: a sequence of shifting minority listener-pause
	// sets, each replacing the previous.
	RollingIsolation CampaignType = "rolling-isolation"
	// NestedIsolation: one set isolated, then a second inside the
	// remainder, healed inner-first.
	NestedIsolation CampaignType = "nested-isolation"
	// FlappingLinks: one or two victims toggling listener pause/resume at
	// periods far below the membership timescale.
	FlappingLinks CampaignType = "flapping-links"
	// AsymmetricLinks: per phase, one victim's listener is paused while
	// its own sends still flow — a genuinely one-way fault, rotated
	// across victims.
	AsymmetricLinks CampaignType = "asymmetric-links"
	// LeaderKill: an amnesia crash targeted at the lowest-ID live node
	// (the ring leader), restarted, then the strike cascades to the next
	// leader.
	LeaderKill CampaignType = "leader-kill"
	// RollingRestart: every node gracefully cycled (live: STOP, exit,
	// respawn) exactly once under load — the operational upgrade drill.
	RollingRestart CampaignType = "rolling-restart"
	// MixedFaults: the soak adversary — every few hundred ms one of stop /
	// kill / listener pause against a random node, each healed before the
	// next strike.
	MixedFaults CampaignType = "mixed-faults"

	// The quorum-loss families below deliberately exceed the ⌊(n-1)/2⌋
	// budget every other process-level family respects: they fault enough
	// nodes at once that no quorum stays mutually connected, so no primary
	// component can exist until the heal. The paper's conditional-liveness
	// claim (the Section 6 lemma chain) only promises delivery after the
	// pattern stabilizes with a majority component; these families drive
	// the before/after of that condition. Their gate is inverted: instead
	// of proving a primary survived, the runners prove the order did not
	// grow during any loss epoch and resumed within a bound after the
	// final heal.

	// MajorityKill: one simultaneous amnesia wave large enough that no
	// quorum survives, held, then staggered restarts — correlated machine
	// failure taking the primary down with it.
	MajorityKill CampaignType = "majority-kill"
	// TotalPartition: every node's peer listener paused at once — a total
	// symmetric partition into n singleton components — healed together.
	TotalPartition CampaignType = "total-partition"
	// CascadingFailure: nodes killed one at a time until just past the
	// quorum-loss threshold, held, then restarted in reverse order — the
	// slow-motion loss and recovery of a primary.
	CascadingFailure CampaignType = "cascading-failure"
	// SplitRejoin: repeated rounds of isolating a different majority
	// subset (listener pause) and rejoining it — each round loses and
	// re-forms the primary.
	SplitRejoin CampaignType = "split-rejoin"
)

// family is one row of the campaign table.
type family struct {
	name CampaignType
	emit func(*gen)
	// process marks a process-level family (process.go).
	process bool
	// loss marks a process-level family that exceeds the quorum budget.
	loss bool
}

// families is the campaign table, in Campaigns' fixed order: the nine
// oracle-level families (pairwise partitions, ugly links, sub-π strike
// timing, crashes held to the forced heal — what only the oracle can
// execute), then the thirteen process-level ones.
var families = []family{
	{name: CrashRestart, emit: (*gen).crashRestart},
	{name: RollingPartition, emit: (*gen).rollingPartition},
	{name: NestedPartition, emit: (*gen).nestedPartition},
	{name: Flapping, emit: (*gen).flapping},
	{name: Asymmetric, emit: (*gen).asymmetric},
	{name: LeaderCrash, emit: (*gen).leaderCrash},
	{name: Mixed, emit: (*gen).mixed},
	{name: Amnesia, emit: (*gen).amnesia},
	{name: TornWrite, emit: (*gen).tornWrite},
	{name: StopWaves, emit: func(g *gen) { g.waves(failures.Bad) }, process: true},
	{name: KillWaves, emit: func(g *gen) { g.waves(failures.Amnesia) }, process: true},
	{name: RollingIsolation, emit: (*gen).rollingIsolation, process: true},
	{name: NestedIsolation, emit: (*gen).nestedIsolation, process: true},
	{name: FlappingLinks, emit: (*gen).flappingLinks, process: true},
	{name: AsymmetricLinks, emit: (*gen).asymmetricLinks, process: true},
	{name: LeaderKill, emit: (*gen).leaderKill, process: true},
	{name: RollingRestart, emit: (*gen).rollingRestart, process: true},
	{name: MixedFaults, emit: (*gen).mixedFaults, process: true},
	{name: MajorityKill, emit: (*gen).majorityKill, process: true, loss: true},
	{name: TotalPartition, emit: (*gen).totalPartition, process: true, loss: true},
	{name: CascadingFailure, emit: (*gen).cascadingFailure, process: true, loss: true},
	{name: SplitRejoin, emit: (*gen).splitRejoin, process: true, loss: true},
}

// Campaigns lists every campaign type, in a fixed order.
var Campaigns = func() []CampaignType {
	out := make([]CampaignType, len(families))
	for i, f := range families {
		out[i] = f.name
	}
	return out
}()

func (ct CampaignType) family() (family, bool) {
	for _, f := range families {
		if f.name == ct {
			return f, true
		}
	}
	return family{}, false
}

// ProcessLevel reports whether the family restricts itself to faults a
// signal injector can execute (internal/liverun runs exactly these).
func (ct CampaignType) ProcessLevel() bool {
	f, _ := ct.family()
	return f.process
}

// QuorumLoss reports whether the family deliberately exceeds the quorum
// budget (and is therefore gated on primary-loss detection and bounded
// recovery instead of the quorum-alive non-vacuity guard).
func (ct CampaignType) QuorumLoss() bool {
	f, _ := ct.family()
	return f.loss
}

// ParseCampaign validates a campaign name.
func ParseCampaign(s string) (CampaignType, error) {
	if _, ok := CampaignType(s).family(); ok {
		return CampaignType(s), nil
	}
	return "", fmt.Errorf("chaos: unknown campaign %q (have %v)", s, Campaigns)
}

// Spec parameterizes schedule generation.
type Spec struct {
	// N is the number of processors (IDs 0..N-1).
	N int
	// Delta is the network's δ; oracle-level fault timing scales with it
	// (the process-level families ignore it).
	Delta time.Duration
	// Window is the adversary's active interval [0, Window): every
	// generated event falls strictly inside it. The runner force-heals the
	// world at the end of the window, establishing the recovery-liveness
	// hypothesis.
	Window time.Duration
}

// Generate produces the failure schedule of the given campaign type,
// deterministically from (ct, seed, spec).
func Generate(ct CampaignType, seed int64, spec Spec) (failures.Schedule, error) {
	f, ok := ct.family()
	switch {
	case !ok:
		return nil, fmt.Errorf("chaos: unknown campaign %q", ct)
	case !f.process:
		if spec.N < 2 {
			return nil, fmt.Errorf("chaos: need at least 2 processors, have %d", spec.N)
		}
		if spec.Delta <= 0 || spec.Window <= 0 {
			return nil, fmt.Errorf("chaos: Delta and Window must be positive")
		}
	case spec.N < 3:
		return nil, fmt.Errorf("chaos: campaign %s needs n >= 3, have %d", ct, spec.N)
	case spec.Window < 2*time.Second:
		return nil, fmt.Errorf("chaos: campaign %s needs window >= 2s, have %v", ct, spec.Window)
	case f.loss && spec.Window < 4*time.Second:
		// The loss epoch must outlast the live detector's grace interval
		// plus at least two sampling periods, and the heal still has to
		// land inside the window; below 4s the shapes can't fit.
		return nil, fmt.Errorf("chaos: quorum-loss campaign %s needs window >= 4s, have %v", ct, spec.Window)
	}
	g := &gen{
		rng:    rand.New(rand.NewSource(seed)),
		spec:   spec,
		all:    types.RangeProcSet(spec.N),
		grain:  1,
		budget: (spec.N - 1) / 2,
	}
	if f.process {
		g.grain = time.Millisecond
	}
	f.emit(g)
	g.out.Sort()
	return g.out, nil
}

type gen struct {
	rng  *rand.Rand
	spec Spec
	all  types.ProcSet
	// grain is the time resolution of emitted events: 1ns for the
	// oracle-level families, 1ms (the live injector's) for process-level.
	grain time.Duration
	// budget is the process-level families' cap on concurrently faulted
	// nodes: (n-1)/2.
	budget int
	out    failures.Schedule
}

// inWindow clamps t strictly inside the adversary window, on the grain.
func (g *gen) inWindow(t time.Duration) sim.Time {
	if t < 0 {
		t = 0
	}
	if t >= g.spec.Window {
		t = g.spec.Window - g.grain
	}
	return sim.Time(t.Truncate(g.grain))
}

func (g *gen) proc(t time.Duration, p types.ProcID, s failures.Status) {
	g.out = append(g.out, failures.Event{Time: g.inWindow(t), Proc: p, Status: s})
}

func (g *gen) channel(t time.Duration, from, to types.ProcID, s failures.Status) {
	g.out = append(g.out, failures.Event{
		Time: g.inWindow(t), Channel: true,
		Pair: failures.Pair{From: from, To: to}, Status: s,
	})
}

// partition emits the event-list form of Oracle.Partition: all processors
// good, channels good within a component and bad across (processors in no
// component are fully cut off).
func (g *gen) partition(t time.Duration, components ...types.ProcSet) {
	comp := make(map[types.ProcID]int)
	for i, c := range components {
		for _, p := range c.Members() {
			comp[p] = i + 1
		}
	}
	for _, p := range g.all.Members() {
		g.proc(t, p, failures.Good)
		for _, r := range g.all.Members() {
			if p == r {
				continue
			}
			if comp[p] != 0 && comp[p] == comp[r] {
				g.channel(t, p, r, failures.Good)
			} else {
				g.channel(t, p, r, failures.Bad)
			}
		}
	}
}

// heal emits the event-list form of Oracle.Heal.
func (g *gen) heal(t time.Duration) {
	g.partition(t, g.all)
}

// randomSplit partitions the universe into k non-empty components.
func (g *gen) randomSplit(k int) []types.ProcSet {
	n := g.spec.N
	if k > n {
		k = n
	}
	perm := g.rng.Perm(n)
	// k-1 distinct cut points define k non-empty runs of the permutation.
	sets := make([][]types.ProcID, k)
	for i, idx := range perm {
		// Assign the first k elements one per component (non-emptiness),
		// the rest uniformly.
		c := i
		if i >= k {
			c = g.rng.Intn(k)
		}
		sets[c] = append(sets[c], types.ProcID(idx))
	}
	out := make([]types.ProcSet, k)
	for i, s := range sets {
		out[i] = types.NewProcSet(s...)
	}
	return out
}

func (g *gen) crashRestart() {
	w := g.spec.Window
	waves := 2 + g.rng.Intn(3)
	for i := 0; i < waves; i++ {
		start := time.Duration(i+1) * w / time.Duration(waves+1)
		k := 1 + g.rng.Intn(g.spec.N-1) // crash 1..N-1, never the whole world at once
		for _, idx := range g.rng.Perm(g.spec.N)[:k] {
			p := types.ProcID(idx)
			at := start + time.Duration(g.rng.Int63n(int64(20*g.spec.Delta)))
			g.proc(at, p, failures.Bad)
			// Two thirds restart before the window closes; the rest stay
			// down until the forced heal.
			if g.rng.Intn(3) < 2 {
				up := at + time.Duration(g.rng.Int63n(int64(w/4)))
				g.proc(up, p, failures.Good)
			}
		}
	}
}

func (g *gen) rollingPartition() {
	w := g.spec.Window
	t := w / 8
	for t < w {
		switch g.rng.Intn(5) {
		case 0:
			g.heal(t)
		case 1:
			g.partition(t, g.randomSplit(3)...)
		default:
			g.partition(t, g.randomSplit(2)...)
		}
		t += time.Duration(int64(w)/8 + g.rng.Int63n(int64(w)/8))
	}
}

func (g *gen) nestedPartition() {
	w := g.spec.Window
	outer := g.randomSplit(2)
	big, small := outer[0], outer[1]
	if small.Size() > big.Size() {
		big, small = small, big
	}
	g.partition(w/6, big, small)
	if big.Size() >= 2 {
		// Sub-partition the larger side, hold, then heal inner-first.
		members := big.Members()
		cut := 1 + g.rng.Intn(len(members)-1)
		inner1 := types.NewProcSet(members[:cut]...)
		inner2 := types.NewProcSet(members[cut:]...)
		g.partition(2*w/6, inner1, inner2, small)
		g.partition(4*w/6, big, small) // inner heal: big reunites, outer cut remains
	}
	if g.rng.Intn(2) == 0 {
		g.heal(5 * w / 6) // sometimes heal the outer cut early, too
	}
}

func (g *gen) flapping() {
	w := g.spec.Window
	// A few directed links flap…
	links := 2 + g.rng.Intn(3)
	for i := 0; i < links; i++ {
		a := types.ProcID(g.rng.Intn(g.spec.N))
		b := types.ProcID(g.rng.Intn(g.spec.N))
		if a == b {
			b = types.ProcID((int(b) + 1) % g.spec.N)
		}
		down := failures.Bad
		if g.rng.Intn(2) == 0 {
			down = failures.Ugly
		}
		t := time.Duration(g.rng.Int63n(int64(w / 4)))
		for t < w {
			g.channel(t, a, b, down)
			t += g.spec.Delta + time.Duration(g.rng.Int63n(int64(8*g.spec.Delta)))
			g.channel(t, a, b, failures.Good)
			t += g.spec.Delta + time.Duration(g.rng.Int63n(int64(8*g.spec.Delta)))
		}
	}
	// …and one processor flaps more slowly (close to the membership
	// timescale, the nastiest regime for view agreement).
	p := types.ProcID(g.rng.Intn(g.spec.N))
	period := 10 * g.spec.Delta
	t := w / 4
	for t < w {
		g.proc(t, p, failures.Bad)
		t += period + time.Duration(g.rng.Int63n(int64(period)))
		g.proc(t, p, failures.Good)
		t += 4*period + time.Duration(g.rng.Int63n(int64(4*period)))
	}
}

func (g *gen) asymmetric() {
	w := g.spec.Window
	phases := 3 + g.rng.Intn(3)
	for i := 0; i < phases; i++ {
		start := time.Duration(i) * w / time.Duration(phases)
		end := time.Duration(i+1) * w / time.Duration(phases)
		// Afflict 1..3 ordered pairs one-way for the phase.
		pairs := 1 + g.rng.Intn(3)
		for j := 0; j < pairs; j++ {
			a := types.ProcID(g.rng.Intn(g.spec.N))
			b := types.ProcID(g.rng.Intn(g.spec.N))
			if a == b {
				b = types.ProcID((int(b) + 1) % g.spec.N)
			}
			st := failures.Ugly
			if g.rng.Intn(3) == 0 {
				st = failures.Bad
			}
			at := start + time.Duration(g.rng.Int63n(int64(end-start)))
			g.channel(at, a, b, st)
			// The reverse direction is explicitly good: strictly one-way.
			g.channel(at, b, a, failures.Good)
			if g.rng.Intn(2) == 0 {
				g.channel(end-1, a, b, failures.Good)
			}
		}
	}
}

func (g *gen) leaderCrash() {
	// Strikes are timed against token circulation: π as the stack derives
	// it from δ and n.
	w, pi := g.spec.Window, vsimpl.DefaultConfig(g.spec.Delta, g.spec.N).Pi
	// downUntil[p] is the instant p comes back up (forever for crashes with
	// no scheduled restart); liveness is evaluated at each strike's time,
	// since a restart scheduled earlier may land after a later strike.
	const forever = time.Duration(1<<62 - 1)
	downUntil := make([]time.Duration, g.spec.N)
	// Strike just before token-launch instants (multiples of π), so the
	// token in flight is orphaned and the next launch never happens.
	k := int64(2)
	for {
		at := time.Duration(k)*pi - g.spec.Delta/2
		if at >= w {
			break
		}
		leader, alive := types.ProcID(0), 0
		for i := g.spec.N - 1; i >= 0; i-- {
			if downUntil[i] <= at {
				alive++
				leader = types.ProcID(i)
			}
		}
		if alive > 1 { // keep at least one processor alive
			g.proc(at, leader, failures.Bad)
			downUntil[leader] = forever
			// Restart after a few token periods, usually.
			if g.rng.Intn(4) > 0 {
				upAt := at + time.Duration(2+g.rng.Intn(3))*pi
				if upAt < w {
					g.proc(upAt, leader, failures.Good)
					downUntil[leader] = upAt
				}
			}
		}
		k += 2 + int64(g.rng.Intn(3))
	}
}

func (g *gen) amnesia() {
	w := g.spec.Window
	waves := 2 + g.rng.Intn(3)
	for i := 0; i < waves; i++ {
		start := time.Duration(i+1) * w / time.Duration(waves+1)
		k := 1 + g.rng.Intn(g.spec.N-1)
		if g.rng.Intn(3) == 0 {
			// Total amnesia: every processor forgets at once, and the group
			// must be rebuilt entirely from stable storage.
			k = g.spec.N
		}
		for _, idx := range g.rng.Perm(g.spec.N)[:k] {
			p := types.ProcID(idx)
			at := start + time.Duration(g.rng.Int63n(int64(20*g.spec.Delta)))
			g.proc(at, p, failures.Amnesia)
			// Two thirds restart (and replay their WAL) before the window
			// closes; the rest stay wiped until the forced heal.
			if g.rng.Intn(3) < 2 {
				up := at + time.Duration(g.rng.Int63n(int64(w/4)))
				g.proc(up, p, failures.Good)
			}
		}
	}
}

func (g *gen) tornWrite() {
	w, pi := g.spec.Window, vsimpl.DefaultConfig(g.spec.Delta, g.spec.N).Pi
	// Many short outages at random instants: with λ > 0 some strikes land
	// while a WAL record is in flight, tearing the log's tail; quick
	// restarts make the truncated replay rejoin under ongoing traffic.
	strikes := 6 + g.rng.Intn(7)
	for i := 0; i < strikes; i++ {
		p := types.ProcID(g.rng.Intn(g.spec.N))
		at := w/8 + time.Duration(g.rng.Int63n(int64(w-w/8)))
		g.proc(at, p, failures.Amnesia)
		up := at + time.Duration(1+g.rng.Intn(4))*pi
		g.proc(up, p, failures.Good)
	}
}

func (g *gen) mixed() {
	w := g.spec.Window
	t := 150 * time.Millisecond
	if t >= w {
		t = w / 8
	}
	for t < w {
		switch g.rng.Intn(4) {
		case 0:
			g.partition(t, g.randomSplit(2)...)
		case 1:
			p := types.ProcID(g.rng.Intn(g.spec.N))
			g.proc(t, p, failures.Bad)
			for _, q := range g.all.Members() {
				if q != p {
					g.channel(t, p, q, failures.Bad)
					g.channel(t, q, p, failures.Bad)
				}
			}
		case 2:
			for i := 0; i < 4; i++ {
				a := types.ProcID(g.rng.Intn(g.spec.N))
				b := types.ProcID(g.rng.Intn(g.spec.N))
				if a != b {
					g.channel(t, a, b, failures.Ugly)
				}
			}
		case 3:
			g.heal(t)
		}
		t += 200*time.Millisecond + time.Duration(g.rng.Int63n(int64(300*time.Millisecond)))
	}
}

// Package vsimpl implements the VS service sketched in Section 8: the
// Cristian–Schmuck-style membership protocol of package membership holds a
// view together with a circulating token that carries the per-view message
// sequence and per-member delivery counts.
//
// Once a view is installed, a deterministically chosen leader (the minimum
// member) launches a token around the logical ring of members: at once
// when a member has a message waiting or the last rotation left "safe"
// unannounced, and otherwise π after the previous launch (see tokenHome).
// Each member, when the token passes: appends its buffered client
// messages to the token's sequence, delivers (gprcv) every message of the
// sequence it has not yet delivered, records its delivery count in the
// token, and emits safe events for the prefix of the sequence that every
// member's recorded count covers. A member that sees no token
// activity for the timeout π + (n+3)δ initiates a view change, as does a
// member contacted by a processor outside its membership (probes are sent
// to non-members every μ).
//
// Under the physical assumptions of Section 8 (good processors act
// immediately, good channels deliver within δ) this implements
// VS(b, d, Q) with b = 9δ + max{π + (n+3)δ, μ} and d = 2π + nδ, which
// experiment E4 measures.
package vsimpl

import (
	"fmt"
	"math"
	"time"

	"repro/internal/check"
	"repro/internal/failures"
	"repro/internal/membership"
	"repro/internal/obs"
	"repro/internal/props"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/types"
)

// Config holds the protocol's timing parameters.
type Config struct {
	// Delta is δ, the good-channel delivery bound (must match the network).
	Delta time.Duration
	// Pi is π, the spacing of an idle ring's token launches by the
	// leader; the analysis requires π > nδ.
	Pi time.Duration
	// Mu is μ, the spacing of probes to processors outside the membership.
	Mu time.Duration
	// CollectWait overrides the membership collection window when positive.
	// The default is 2.5δ: the accept round trip takes up to 2δ exactly,
	// and windows at or below 2δ lose worst-case replies (the E9 ablation
	// demonstrates the cliff).
	CollectWait time.Duration
	// OneRound switches membership to the one-round protocol of footnote
	// 7: views are announced directly from a reachability estimate (peers
	// heard from within the last 2μ). Saves a round trip in the stable
	// case, stabilizes more slowly after failures (experiment E10
	// quantifies the trade).
	OneRound bool
	// NoTokenCompaction disables dropping all-delivered entries from the
	// circulating token (the E11 ablation: without compaction the token
	// grows with the view's entire history), and from each node's copy of
	// the view's sequence.
	NoTokenCompaction bool
	// InstallSlack stretches the patience windows that implicitly assume a
	// view installation is instantaneous: the token-loss timeout and the
	// formation hold-off. With write-ahead install gating (internal/
	// recovery), an accepted view commits only once its WAL record is
	// durable — a λ-latency storage write — so the leader launches the new
	// view's first token up to λ late; detectors calibrated for immediate
	// installs would declare the token lost and re-form forever. The stack
	// sets this to its storage latency.
	InstallSlack time.Duration
	// Obs, when non-nil, receives the layer's metrics (vs.* instruments,
	// mb.* via the membership Former) and trace events. Nil disables
	// instrumentation at zero cost.
	Obs *obs.Registry
}

// DefaultConfig derives π and μ from δ for an n-processor universe:
// π = (n+2)δ (comfortably above the nδ requirement) and μ = 2π.
func DefaultConfig(delta time.Duration, n int) Config {
	pi := time.Duration(n+2) * delta
	return Config{Delta: delta, Pi: pi, Mu: 2 * pi}
}

// TokenTimeout returns the token-loss detection bound π + (n+3)δ used by
// the paper's analysis for a view of n members, stretched by InstallSlack
// when installations are gated on stable storage.
func (c Config) TokenTimeout(n int) time.Duration {
	return c.Pi + time.Duration(n+3)*c.Delta + c.InstallSlack
}

// AnalyticB returns the paper's stabilization bound
// b = 9δ + max{π + (n+3)δ, μ}.
func (c Config) AnalyticB(n int) time.Duration {
	detect := c.TokenTimeout(n)
	if c.Mu > detect {
		detect = c.Mu
	}
	return 9*c.Delta + detect
}

// AnalyticD returns the paper's delivery bound d = 2π + nδ, quoted from
// the [19] analysis of the Section 8 protocol.
func (c Config) AnalyticD(n int) time.Duration {
	return 2*c.Pi + time.Duration(n)*c.Delta
}

// AnalyticDImpl returns the worst-case safe-latency bound for *this*
// package's token discipline, d_impl = 3(π + nδ): a message can wait one
// full token period for pickup, needs one rotation to reach every member,
// and one more for the members' delivery counts to propagate back through
// the token before safe can be announced everywhere. The paper quotes
// d = 2π + nδ for the exact protocol of [19]; ours has the same linear
// shape in π, n and δ with a larger constant, and measured values usually
// fall between the two (experiment E4 reports both).
func (c Config) AnalyticDImpl(n int) time.Duration {
	return 3 * (c.Pi + time.Duration(n)*c.Delta)
}

// Handlers is the upward-facing VS interface: the events of Figure 6
// delivered to the layer above (VStoTO in the paper's Figure 1).
type Handlers struct {
	Newview func(v types.View)
	Gprcv   func(from types.ProcID, payload any)
	Safe    func(from types.ProcID, payload any)
}

// TokenMsg is one entry of a token's per-view message sequence. Exported
// so the wire codec can serialize tokens crossing the simulated network.
type TokenMsg struct {
	ID      check.MsgID
	From    types.ProcID
	Payload any
}

// TokenPkt is the circulating token.
type TokenPkt struct {
	View types.View
	// Base is the number of leading entries of the view's total order
	// compacted out of the token: Msgs[i] is the view's (Base+i+1)-th
	// message. Entries may be dropped once every member's Delivered count
	// covers them (they can never need re-delivery), which keeps the token
	// bounded by the in-flight window instead of growing with the view's
	// whole history. The E11 ablation measures the difference.
	Base      int
	Msgs      []TokenMsg // entries Base+1 .. Base+len(Msgs) of the total order
	Delivered map[types.ProcID]int
}

// ProbePkt is the periodic contact attempt to non-members.
type ProbePkt struct {
	ViewID types.ViewID // sender's current view id (⊥ if none), for Observe
}

// TokenRequestPkt asks the ring leader of view ViewID for a rotation now:
// the sender's empty buffer just took a client message (tokenHome's
// demand launch). Requests for any other view are dropped.
type TokenRequestPkt struct {
	ViewID types.ViewID
}

type bufMsg struct {
	ID      check.MsgID
	Payload any
	View    types.ViewID
}

// Node is one processor's VS endpoint.
type Node struct {
	id       types.ProcID
	universe types.ProcSet
	sim      *sim.Sim
	net      transport.Transport
	oracle   *failures.Oracle
	cfg      Config
	handlers Handlers
	former   *membership.Former

	// Log, when non-nil, records timed VS events for property evaluation
	// and conformance checking.
	Log *props.Log

	cur     types.View
	hasView bool
	dead    bool

	lastHeard map[types.ProcID]sim.Time

	sendSeq int
	buffer  []bufMsg

	// Per-view delivery state. seq holds the view's total order from the
	// logical position seqBase on: seq[i] is message seqBase+i+1, and
	// seqBase+len(seq) messages have been delivered here. Entries below
	// safeSent are never read again (see trimSeq).
	seq      []TokenMsg
	seqBase  int
	safeSent int // messages of the view for which safe was emitted
	// safeTarget is the prefix every member's count covers as of the last
	// merge: safe for messages safeSent+1 .. safeTarget is owed, and
	// emitSafe makes it once the token has been handed off. emitting
	// marks an emitSafe in progress, so an upcall that relaunches the
	// token (gpsnd → launchHeld) leaves the new safes to the running loop.
	safeTarget int
	emitting   bool
	counts     map[types.ProcID]int
	lastLaunch sim.Time
	launchNo   int
	tokenTimer sim.Timer
	// holdTimer is pending exactly while the leader holds the token, waiting
	// out the π spacing.
	holdTimer sim.Timer
	// launchSafe is the safe target as of the last launch's own merge: the
	// safe prefix that rotation announces to the other members.
	launchSafe int
	// requested records a TokenRequestPkt that found the token out; the next
	// launch clears it.
	requested bool
	// onLaunch, when non-nil, observes every freshly launched token before
	// the leader's own merge (tests compare it with a reference launch).
	onLaunch func(*TokenPkt)

	stats Stats

	// Observability handles (bound from cfg.Obs; all nil when disabled).
	mTokenLaunches   *obs.Counter
	mTokenHops       *obs.Counter
	mTokenTimeouts   *obs.Counter
	mTokenRequests   *obs.Counter // TokenRequestPkts sent to the leader
	mDemandLaunches  *obs.Counter // launches for a local Gpsnd or a member's request
	mAnnounceRounds  *obs.Counter // relaunches at homecoming: unannounced or buffered messages
	mProbes          *obs.Counter
	mInstalls        *obs.Counter
	mTokenRound      *obs.Histogram
	mMaxTokenEntries *obs.Gauge
	mBuffered        *obs.Gauge // current client messages awaiting token pickup
	tracer           *obs.Tracer
}

// Stats counts node activity for the experiment reports.
type Stats struct {
	Sent        int
	Delivered   int
	SafeEmitted int
	TokenHops   int
	Timeouts    int
	ProbesSent  int
	// MaxTokenEntries is the largest token (entry count) this node handled.
	MaxTokenEntries int
}

// NewNode creates the VS endpoint for processor id. Processors in p0 start
// in the initial view ⟨g0, P0⟩; others start with no view. Call Start once
// the whole system is wired.
func NewNode(id types.ProcID, universe, p0 types.ProcSet, s *sim.Sim, nw transport.Transport,
	oracle *failures.Oracle, cfg Config, handlers Handlers) *Node {
	if cfg.Pi <= 0 || cfg.Delta <= 0 || cfg.Mu <= 0 {
		panic(fmt.Sprintf("vsimpl: non-positive timing parameter %+v", cfg))
	}
	n := &Node{
		id:        id,
		universe:  universe,
		sim:       s,
		net:       nw,
		oracle:    oracle,
		cfg:       cfg,
		handlers:  handlers,
		counts:    make(map[types.ProcID]int),
		lastHeard: make(map[types.ProcID]sim.Time),
	}
	var initial types.View
	if p0.Contains(id) {
		initial = types.InitialView(p0)
		n.cur = initial
		n.hasView = true
	}
	// The accept round trip takes up to 2δ exactly; collect slightly longer
	// so worst-case replies are not lost to event-ordering ties.
	collectWait := cfg.CollectWait
	if collectWait <= 0 {
		collectWait = 2*cfg.Delta + cfg.Delta/2
	}
	n.former = membership.NewFormer(id, universe, s, nw, collectWait, initial, n.install)
	n.former.Instrument(cfg.Obs)
	// Hold off competing initiations for one full formation (call δ +
	// collect + newview δ) plus slack, plus the install-gating latency.
	n.former.HoldOff = collectWait + 4*cfg.Delta + cfg.InstallSlack
	n.mTokenLaunches = cfg.Obs.Counter("vs.token_launches")
	n.mTokenHops = cfg.Obs.Counter("vs.token_hops")
	n.mTokenTimeouts = cfg.Obs.Counter("vs.token_timeouts")
	n.mTokenRequests = cfg.Obs.Counter("vs.token_requests")
	n.mDemandLaunches = cfg.Obs.Counter("vs.token_demand_launches")
	n.mAnnounceRounds = cfg.Obs.Counter("vs.token_announce_rounds")
	n.mProbes = cfg.Obs.Counter("vs.probes")
	n.mInstalls = cfg.Obs.Counter("vs.installs")
	n.mTokenRound = cfg.Obs.Histogram("vs.token_round")
	n.mMaxTokenEntries = cfg.Obs.Gauge("vs.max_token_entries")
	n.mBuffered = cfg.Obs.Gauge("vs.buffered")
	n.tracer = cfg.Obs.Tracer()
	if cfg.OneRound {
		n.former.SetOneRound(func() types.ProcSet { return n.reachableWithin(2 * cfg.Mu) })
	}
	nw.Register(id, n.receive)
	return n
}

// Resume parameterizes a node rebuilt after an amnesia crash, from the
// floors its predecessor persisted (see internal/recovery).
type Resume struct {
	// ViewFloor is the identifier of the last view durably installed
	// before the crash (⊥ if none): the rebuilt node only installs or
	// proposes views strictly above it, preserving local monotonicity
	// across incarnations.
	ViewFloor types.ViewID
	// SendSeqFloor is the base of the new incarnation's send-sequence
	// space: MsgIDs start strictly above it. The stack derives it from the
	// durable incarnation number, partitioning the sequence space so that
	// identifiers never repeat across restarts regardless of how far the
	// wiped incarnation's volatile counter had advanced.
	SendSeqFloor int
}

// NewRecoveredNode creates the VS endpoint for a processor restarting
// after an amnesia crash: it holds no view (membership pulls it back in,
// respecting the floors) and must replace a predecessor that has been
// Stopped. Call Start once wired.
func NewRecoveredNode(id types.ProcID, universe types.ProcSet, s *sim.Sim, nw transport.Transport,
	oracle *failures.Oracle, cfg Config, res Resume, handlers Handlers) *Node {
	n := NewNode(id, universe, types.ProcSet{}, s, nw, oracle, cfg, handlers)
	n.sendSeq = res.SendSeqFloor
	if !res.ViewFloor.IsBottom() {
		collectWait := cfg.CollectWait
		if collectWait <= 0 {
			collectWait = 2*cfg.Delta + cfg.Delta/2
		}
		n.former = membership.NewFormer(id, universe, s, nw, collectWait,
			types.View{ID: res.ViewFloor}, n.install)
		n.former.Instrument(cfg.Obs)
		n.former.HoldOff = collectWait + 4*cfg.Delta + cfg.InstallSlack
		if cfg.OneRound {
			n.former.SetOneRound(func() types.ProcSet { return n.reachableWithin(2 * cfg.Mu) })
		}
	}
	return n
}

// Stop permanently deactivates the node: timers are cancelled, the
// membership layer is stopped, and every later packet or input is
// ignored. An amnesia crash calls this on the wiped incarnation before
// NewRecoveredNode re-registers a replacement with the network.
func (n *Node) Stop() {
	n.dead = true
	n.tokenTimer.Cancel()
	n.tokenTimer = sim.Timer{}
	n.holdTimer.Cancel()
	n.holdTimer = sim.Timer{}
	n.former.Stop()
}

// reachableWithin returns the processors heard from within the window —
// the one-round protocol's membership estimate.
func (n *Node) reachableWithin(window time.Duration) types.ProcSet {
	var ids []types.ProcID
	now := n.sim.Now()
	for p, at := range n.lastHeard {
		if now.Sub(at) <= window {
			ids = append(ids, p)
		}
	}
	return types.NewProcSet(ids...)
}

// ID returns the processor identifier.
func (n *Node) ID() types.ProcID { return n.id }

// View returns the current view; ok is false while the view is ⊥.
func (n *Node) View() (types.View, bool) { return n.cur, n.hasView }

// Stats returns the activity counters.
func (n *Node) Stats() Stats { return n.stats }

// FormerStats returns the membership layer's counters.
func (n *Node) FormerStats() membership.Stats { return n.former.Stats() }

// SetInstallGate interposes on view installation at the membership layer
// (see membership.Former.Gate). The stack's recovery layer uses it to make
// installations write-ahead: the view record is durable before the view
// takes effect, so a restart can always restore a floor at or above every
// installation the previous incarnation announced. Set before Start.
func (n *Node) SetInstallGate(gate func(types.View, func())) { n.former.Gate = gate }

// Start arms the node's timers; in the initial view the leader launches
// the first token immediately.
func (n *Node) Start() {
	if n.Log != nil && n.hasView {
		n.Log.SetInitial(n.id, n.cur)
	}
	if n.hasView {
		n.armTokenTimer()
		if n.isLeader() {
			n.launchToken()
		}
	} else {
		// A processor outside P0 knows nothing; its probe/timeout machinery
		// will pull it into a view.
		n.tokenTimer = n.sim.After(n.cfg.TokenTimeout(n.universe.Size()), n.onTokenTimeout)
	}
	n.sim.After(n.cfg.Mu, n.probeTick)
}

// Gpsnd accepts a client message. Sent while the view is ⊥, the message is
// ignored, exactly as VS-machine specifies.
func (n *Node) Gpsnd(payload any) {
	if n.dead || n.down() {
		return
	}
	if !n.hasView {
		return
	}
	n.sendSeq++
	n.stats.Sent++
	id := check.MsgID{Sender: n.id, Seq: n.sendSeq}
	n.buffer = append(n.buffer, bufMsg{ID: id, Payload: payload, View: n.cur.ID})
	n.mBuffered.Set(int64(len(n.buffer)))
	if n.Log != nil {
		n.Log.Append(props.Event{T: n.sim.Now(), Kind: props.VSGpsnd, P: n.id, Msg: id})
	}
	if len(n.buffer) == 1 {
		// Later messages ride the rotation this one asks for.
		if n.isLeader() {
			n.launchHeld()
		} else {
			n.mTokenRequests.Inc()
			n.net.Send(n.id, n.cur.Set.Min(), TokenRequestPkt{ViewID: n.cur.ID})
		}
	}
}

// down reports whether this processor is currently stopped (bad or
// amnesiac).
func (n *Node) down() bool { return n.oracle.Proc(n.id).Down() }

func (n *Node) isLeader() bool { return n.hasView && n.cur.Set.Min() == n.id }

// install is the membership layer's callback: a new view takes effect.
func (n *Node) install(v types.View) {
	n.mInstalls.Inc()
	n.tracer.Emit("vs", "newview", n.id, obs.NoPeer, v.ID.Epoch, "")
	n.cur = v
	n.hasView = true
	n.seq = nil
	n.seqBase = 0
	n.safeSent = 0
	n.safeTarget = 0
	n.counts = make(map[types.ProcID]int)
	n.launchNo = 0
	n.lastLaunch = 0
	// Messages buffered for older views are dropped: VS delivers a message
	// only in its sending view, and undelivered suffixes are permitted.
	kept := n.buffer[:0]
	for _, m := range n.buffer {
		if m.View == v.ID {
			kept = append(kept, m)
		}
	}
	n.buffer = kept
	n.mBuffered.Set(int64(len(n.buffer)))
	n.holdTimer.Cancel()
	n.holdTimer = sim.Timer{}
	if n.Log != nil {
		n.Log.Append(props.Event{T: n.sim.Now(), Kind: props.VSNewview, P: n.id, View: v})
	}
	if n.handlers.Newview != nil {
		n.handlers.Newview(v)
	}
	n.armTokenTimer()
	if n.isLeader() {
		n.launchToken()
	}
}

// receive dispatches an incoming packet.
func (n *Node) receive(pkt transport.Packet) {
	if n.dead || n.down() {
		return
	}
	n.lastHeard[pkt.From] = n.sim.Now()
	switch p := pkt.Payload.(type) {
	case membership.CallPkt:
		n.former.HandleCall(pkt.From, p)
	case membership.AcceptPkt:
		n.former.HandleAccept(pkt.From, p)
	case membership.NewviewPkt:
		n.former.HandleNewview(p)
	case *TokenPkt:
		n.handleToken(p)
	case ProbePkt:
		n.former.Observe(p.ViewID)
		n.handleProbe(pkt.From)
	case TokenRequestPkt:
		if n.isLeader() && p.ViewID == n.cur.ID && !n.launchHeld() {
			n.requested = true // the token is out: honoured at homecoming
		}
	default:
		panic(fmt.Sprintf("vsimpl: unexpected payload %T", pkt.Payload))
	}
}

// handleProbe reacts to contact from a processor outside the current
// membership: a new view is needed (Section 8's merge trigger).
func (n *Node) handleProbe(from types.ProcID) {
	if n.hasView && n.cur.Set.Contains(from) {
		return // routine contact from a fellow member
	}
	n.former.Initiate()
}

// launchToken starts a fresh circulation of the token from the leader.
func (n *Node) launchToken() {
	if !n.isLeader() || n.down() {
		return
	}
	n.launchNo++
	n.mTokenLaunches.Inc()
	n.lastLaunch = n.sim.Now()
	n.requested = false
	// The token starts at the prefix every member has delivered, so a launch
	// copies the in-flight window rather than the view's history. That
	// prefix is at least the safe target, hence at least seqBase.
	base := 0
	if !n.cfg.NoTokenCompaction {
		base = minDelivered(n.cur, n.counts)
	}
	tok := &TokenPkt{
		View:      n.cur,
		Base:      base,
		Msgs:      append([]TokenMsg(nil), n.seq[base-n.seqBase:]...),
		Delivered: copyCounts(n.counts),
	}
	if n.onLaunch != nil {
		n.onLaunch(tok)
	}
	// A launch counts as token activity; in a singleton view it is the only
	// activity, and must keep the loss detector quiet.
	n.armTokenTimer()
	n.mergeToken(tok)
	n.launchSafe = n.safeTarget
	n.forwardToken(tok)
	n.emitSafe()
}

// launchHeld launches the token on demand if the leader is holding it, and
// reports whether it did. A token in flight is left alone: the messages it
// is wanted for join it at homecoming.
func (n *Node) launchHeld() bool {
	if !n.holdTimer.Pending() {
		return false
	}
	n.holdTimer.Cancel()
	n.mDemandLaunches.Inc()
	n.launchToken()
	return true
}

func copyCounts(m map[types.ProcID]int) map[types.ProcID]int {
	out := make(map[types.ProcID]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// handleToken processes a token arriving over the ring.
func (n *Node) handleToken(tok *TokenPkt) {
	if !n.hasView || tok.View.ID != n.cur.ID {
		n.former.Observe(tok.View.ID)
		return // stale token from a view we have left (or never joined)
	}
	n.stats.TokenHops++
	n.mTokenHops.Inc()
	n.armTokenTimer()
	n.mergeToken(tok)
	if n.isLeader() {
		// The token is home: one full ring rotation has completed.
		n.mTokenRound.Record(n.sim.Now().Sub(n.lastLaunch))
		n.tokenHome()
	} else {
		n.forwardToken(tok)
	}
	n.emitSafe()
}

// tokenHome decides, with the token back at the leader, when it goes out
// again. Token rounds are demand-driven: π spaces the launches of an idle
// ring only, and a message never waits on it. Three rules replace the
// paper's "launch every π":
//
//   - demand launch: a Gpsnd that makes an empty buffer non-empty
//     launches the held token at once; at any other member it sends the
//     leader a TokenRequestPkt, which launches the held token or, with
//     the token out, is honoured here;
//   - announce round: a token that comes home to a sequence longer than
//     the safe prefix it was launched with goes straight out again, so
//     the other members learn "safe" one rotation after the leader
//     instead of π later;
//   - otherwise — a rotation that changed nothing — the leader holds the
//     token until π after its last launch.
//
// Messages arriving while a rotation is in flight ride the next one
// together, so batching adapts to load. A lost request costs at most the
// π wait it tried to skip, and d = 2π + nδ still bounds delivery.
func (n *Node) tokenHome() {
	n.holdTimer.Cancel()
	// The ring's wire time paces consecutive rounds, and a rotation that
	// adds nothing leaves launchSafe == seqLen(), so this cannot spin.
	if len(n.buffer) > 0 || n.launchSafe < n.seqLen() {
		n.mAnnounceRounds.Inc()
		n.launchToken()
		return
	}
	if n.requested {
		n.mDemandLaunches.Inc()
		n.launchToken()
		return
	}
	next := n.lastLaunch.Add(n.cfg.Pi)
	if next <= n.sim.Now() {
		n.launchToken()
		return
	}
	launch := n.launchNo
	n.holdTimer = n.sim.At(next, func() {
		if n.launchNo == launch { // no view change in between
			n.launchToken()
		}
	})
}

// mergeToken appends this node's buffered messages to the token, delivers
// everything not yet delivered here, updates counts, and raises the safe
// target to the all-members-delivered prefix. The safe events themselves
// wait for emitSafe, after the token has left: the counts the token
// carries are gprcv upcalls already made, so the target is safe when the
// token leaves and stays safe, since counts only grow.
func (n *Node) mergeToken(tok *TokenPkt) {
	// Pick up buffered client messages for this view.
	for _, m := range n.buffer {
		tok.Msgs = append(tok.Msgs, TokenMsg{ID: m.ID, From: n.id, Payload: m.Payload})
	}
	n.buffer = n.buffer[:0]
	n.mBuffered.Set(0)
	if len(tok.Msgs) > n.stats.MaxTokenEntries {
		n.stats.MaxTokenEntries = len(tok.Msgs)
	}
	n.mMaxTokenEntries.Max(int64(len(tok.Msgs)))
	// Deliver the sequence suffix we have not delivered yet. Compaction
	// guarantees Base ≤ every member's count ≤ seqLen(), so the suffix
	// beyond our count is always present in the token.
	for i := n.seqLen() - tok.Base; i < len(tok.Msgs); i++ {
		m := tok.Msgs[i]
		n.seq = append(n.seq, m)
		n.stats.Delivered++
		if n.Log != nil {
			n.Log.Append(props.Event{T: n.sim.Now(), Kind: props.VSGprcv, P: n.id, From: m.From, Msg: m.ID})
		}
		if n.handlers.Gprcv != nil {
			n.handlers.Gprcv(m.From, m.Payload)
		}
	}
	// Merge delivery counts (ours is now seqLen()).
	for p, c := range tok.Delivered {
		if c > n.counts[p] {
			n.counts[p] = c
		}
	}
	n.counts[n.id] = n.seqLen()
	tok.Delivered = copyCounts(n.counts)
	n.compactToken(tok)
	// Safe prefix: every member's count covers it (ours is seqLen()).
	n.safeTarget = minDelivered(n.cur, n.counts)
}

// emitSafe emits the safe events owed up to the safe target, in order. It
// runs once the token is handed off (forwarded, or home and relaunched or
// held), so a hop's token never waits for the layer above's safe work. A
// nested call — a safe upcall whose gpsnd relaunches the held token —
// returns at once; the running loop emits what the relaunch made safe,
// and each message's safe exactly once, since safeSent moves past a
// message before its upcall runs.
func (n *Node) emitSafe() {
	if n.emitting {
		return
	}
	n.emitting = true
	for n.safeSent < n.safeTarget {
		m := n.seq[n.safeSent-n.seqBase]
		n.safeSent++
		n.stats.SafeEmitted++
		if n.Log != nil {
			n.Log.Append(props.Event{T: n.sim.Now(), Kind: props.VSSafe, P: n.id, From: m.From, Msg: m.ID})
		}
		if n.handlers.Safe != nil {
			n.handlers.Safe(m.From, m.Payload)
		}
	}
	n.emitting = false
	n.trimSeq()
}

// seqLen returns how many messages of the current view this node has
// delivered.
func (n *Node) seqLen() int { return n.seqBase + len(n.seq) }

// trimSeq forgets the entries of seq below safeSent. Nothing reads them
// again: safeSent is at most every member's count and counts only grow,
// so every later launch starts at or above it, every later token's
// undelivered suffix lies above it, and the safe loop resumes from it. The
// live suffix is copied out only once the dead prefix is at least half of
// seq, which keeps the copying O(1) amortised per message and seq at most
// twice the unsafe suffix. Under NoTokenCompaction (the E11 ablation)
// nothing is trimmed.
func (n *Node) trimSeq() {
	dead := n.safeSent - n.seqBase
	if n.cfg.NoTokenCompaction || dead == 0 || 2*dead < len(n.seq) {
		return
	}
	n.seq = append([]TokenMsg(nil), n.seq[dead:]...)
	n.seqBase = n.safeSent
}

// minDelivered returns the smallest delivery count over v's members: the
// prefix of v's total order that every member has delivered.
func minDelivered(v types.View, counts map[types.ProcID]int) int {
	least := math.MaxInt
	for _, p := range v.Set.Members() {
		if c := counts[p]; c < least {
			least = c
		}
	}
	return least
}

// compactToken drops token entries already delivered at every member of
// the view (per the counts the token carries). Counts only grow, so a
// conservative (stale) minimum is always safe.
func (n *Node) compactToken(tok *TokenPkt) {
	if n.cfg.NoTokenCompaction {
		return
	}
	if least := minDelivered(tok.View, tok.Delivered); least > tok.Base {
		tok.Msgs = append([]TokenMsg(nil), tok.Msgs[least-tok.Base:]...)
		tok.Base = least
	}
}

// forwardToken sends the token to the next member around the ring.
func (n *Node) forwardToken(tok *TokenPkt) {
	members := n.cur.Set.Members()
	if len(members) == 1 {
		// Singleton view: the token never travels, so it is home already.
		// Decide the relaunch here, or the node would starve its own
		// messages and churn on token timeouts.
		n.tokenHome()
		return
	}
	next := members[0]
	for i, p := range members {
		if p == n.id {
			next = members[(i+1)%len(members)]
			break
		}
	}
	n.net.Send(n.id, next, tok)
}

// armTokenTimer (re)arms token-loss detection.
func (n *Node) armTokenTimer() {
	n.tokenTimer.Cancel()
	size := n.universe.Size()
	if n.hasView {
		size = n.cur.Set.Size()
	}
	n.tokenTimer = n.sim.After(n.cfg.TokenTimeout(size), n.onTokenTimeout)
}

func (n *Node) onTokenTimeout() {
	if n.dead {
		return
	}
	if n.down() {
		// A stopped processor keeps a timer armed so it reintegrates after
		// recovery, but takes no action now.
		n.armTokenTimer()
		return
	}
	n.stats.Timeouts++
	n.mTokenTimeouts.Inc()
	n.tracer.Emit("vs", "token_timeout", n.id, obs.NoPeer, 0, "")
	n.former.Initiate()
	n.armTokenTimer()
}

// probeTick sends probes to processors outside the membership and re-arms.
func (n *Node) probeTick() {
	if n.dead {
		return // a stopped incarnation re-arms nothing
	}
	defer n.sim.After(n.cfg.Mu, n.probeTick)
	if n.down() {
		return
	}
	vid := types.Bottom
	if n.hasView {
		vid = n.cur.ID
	}
	for _, p := range n.universe.Members() {
		if p == n.id {
			continue
		}
		// In one-round mode probes double as heartbeats: the reachability
		// estimate needs fresh lastHeard entries for members too.
		if !n.cfg.OneRound && n.hasView && n.cur.Set.Contains(p) {
			continue
		}
		n.stats.ProbesSent++
		n.mProbes.Inc()
		n.net.Send(n.id, p, ProbePkt{ViewID: vid})
	}
}

// Package stack composes the VStoTO algorithm over the VS implementation
// into the paper's TO service (the dashed box of Figure 1): one TO endpoint
// per processor, each wiring a vstoto.Proc to a vsimpl.Node and running the
// algorithm's locally controlled actions eagerly — the timed model's "good
// processors take enabled steps with no time delay".
//
// Each endpoint additionally keeps a write-ahead log (internal/recovery)
// on a simulated stable-storage device, persisting every VStoTO-critical
// state change as it happens. The paper's Bad status pauses a processor
// but preserves its state; the extended Amnesia status (failures.Amnesia)
// wipes volatile state, and on the transition back to Good the endpoint is
// rebuilt from a replay of its WAL and rejoins through the ordinary
// membership protocol. Deliveries are write-ahead gated: the client sees a
// value only once its delivery record is durable, so the persisted
// delivery prefix always equals the delivered prefix exactly (the
// invariant props.CheckRejoinSafety pins).
package stack

import (
	"time"

	"repro/internal/codec"
	"repro/internal/failures"
	"repro/internal/net"
	"repro/internal/obs"
	"repro/internal/props"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/vsimpl"
	"repro/internal/vstoto"
)

// incarnationSeqSpan partitions the VS send-sequence space by incarnation:
// incarnation k issues MsgID sequence numbers in (k·2³², (k+1)·2³²], so
// identifiers never collide across amnesia restarts no matter how far the
// wiped incarnation's volatile counter had run ahead of stable storage.
const incarnationSeqSpan = 1 << 32

// Delivery is one totally ordered delivery to the client at a node.
type Delivery struct {
	From  types.ProcID
	Value types.Value
	Time  sim.Time
}

// Node is one processor's TO endpoint.
type Node struct {
	id      types.ProcID
	sim     *sim.Sim
	orc     *failures.Oracle
	c       *Cluster
	proc    *vstoto.Proc
	vs      *vsimpl.Node
	log     *props.Log
	onRcv   []func(Delivery)
	onBatch []func([]Delivery)
	// drainDepth/batch bracket one client-visible delivery batch: the
	// outermost drain (completion callbacks re-enter drain mid-loop), once
	// the pipeline quiesces, flushes everything released since the last
	// flush to the batch observers in one call — the boundary the rsm
	// layer's antichain planner cuts at. batch is kept only while there
	// are batch observers, and reused after each flush.
	drainDepth int
	batch      []Delivery

	bcastSeq  int // per-origin submission counter for the log
	delivered int // values released to the client here
	// pendingOwn counts this node's accepted submissions not yet delivered
	// back to it — the end-to-end TOBcast backlog Bcast bounds. It
	// survives restarts: recovery recomputes it as the durable submission
	// count minus the own-origin entries of the durable delivered prefix.
	pendingOwn int

	// Crash-recovery state.
	wal       *recovery.WAL
	delaySeqs []int // submission seqs of proc.Delay entries, in lockstep
	// incarnation guards storage completion callbacks: a callback captured
	// under an older incarnation must not act on the rebuilt state.
	incarnation int
	// Delivery pipelining (deliverPipeline bounds the sum of the two):
	// deliverInFlight counts delivery records being written, and ready
	// holds, in release order, the origin seq of each record durable but
	// not yet released. Records are written for consecutive confirmed
	// positions ahead of NextReport; the confirmed prefix is stable across
	// establishments, so a record written ahead names the same label/value
	// (and origin seq) it will have at release time.
	deliverInFlight int
	ready           []int
	needsRecovery   bool
	recoveries      int
	lastReplay      *ReplayStats

	// Checkpoint policy (Options.CheckpointBytes; 0 disables). waPending
	// counts write-ahead records enqueued but not yet durable — between
	// enqueue and completion the log runs ahead of memory, so a checkpoint
	// (which must equal a replay of the log prefix it lands after) is only
	// captured when the counter is zero. hasView/curView track the last
	// installed view and walInc the durable recovery-marker count, both
	// needed in the capture.
	ckptEvery   int
	ckptPending bool
	waPending   int
	hasView     bool
	curView     types.View
	walInc      int
	checkpoints int

	// Per-label timestamps for the vstoto latency histograms (allocated
	// only when the cluster's obs registry is enabled; nil otherwise).
	labelAt   map[types.Label]sim.Time
	confirmAt map[types.Label]sim.Time
}

// Cluster is a full TO service instance on a simulator: the network, the
// failure oracle, and one Node per processor.
type Cluster struct {
	Sim    *sim.Sim
	Oracle *failures.Oracle
	Net    *net.Network
	// Log is the cluster's timed external trace (Options.Log); nil when
	// the caller asked for none.
	Log   *props.Log
	Procs types.ProcSet
	Cfg   vsimpl.Config
	// Crashes records, at each amnesia crash, what the wiped processor's
	// stable storage will restore on restart — the evidence that
	// props.CheckRejoinSafety compares against the recorded trace. Like
	// the trace, it is kept only when Log is set.
	Crashes []props.CrashSnapshot
	// Obs is the cluster's observability registry (nil when disabled).
	Obs *obs.Registry

	// tr is the transport every node sends through: the simulated Network
	// in NewCluster, a real-socket transport in NewLiveNode.
	tr         transport.Transport
	qs         types.QuorumSystem
	skipReplay bool
	// maxPending bounds each node's accepted-but-undelivered submission
	// backlog (Bcast backpressure); 0 leaves Bcast unbounded.
	maxPending int
	nodes      map[types.ProcID]*Node
	m          clusterMetrics
	// submitted maps each client submission to its bcast instant, for the
	// end-to-end to.deliver_latency histogram (nil when obs is disabled).
	// An entry leaves once every node of the cluster has released it.
	submitted map[submitKey]submission
	// history holds every node's deliveries, in order — what Deliveries
	// returns. Only a simulated cluster keeps it: a live node's history
	// lives in its trace file and its clients, and is nil here.
	history map[types.ProcID][]Delivery
}

// submission is a client submission's bcast instant and the number of
// nodes that have released it so far.
type submission struct {
	at       sim.Time
	released int
}

// submitKey identifies one client submission across the cluster.
type submitKey struct {
	origin types.ProcID
	seq    int
}

// clusterMetrics holds the stack-level obs handles (all nil when disabled).
type clusterMetrics struct {
	bcasts        *obs.Counter
	bcastRejected *obs.Counter // Bcast backpressure rejections
	deliveries    *obs.Counter
	crashes       *obs.Counter
	recoveries    *obs.Counter
	pendingBcasts *obs.Gauge // accepted-but-undelivered backlog (live: the one node's)
	// primary is 1 when the most recent view installation in this registry
	// was a primary view at the installing node. In live deployments the
	// registry is per-daemon, so this is exactly "this node is in a primary
	// component" — the metric behind the STALLED status.
	primary          *obs.Gauge
	replayRecords    *obs.Counter
	replayBytes      *obs.Counter
	deliverLatency   *obs.Histogram // bcast → brcv, per delivering node
	labelToConfirm   *obs.Histogram // label → confirm at the origin
	confirmToRelease *obs.Histogram // confirm → brcv at the origin
	installGateWait  *obs.Histogram // gate entry → durable commit
	tracer           *obs.Tracer
}

// Options configures NewCluster.
type Options struct {
	Seed    int64
	N       int
	P0Size  int // processors initially in the group (default: all)
	Delta   time.Duration
	Jitter  bool
	Quorums types.QuorumSystem // default: majorities of the universe
	// Wire, when true, serializes every payload crossing the network
	// through the binary wire codec and back, so no pointer survives a
	// hop (a realism/honesty mode; slightly slower).
	Wire bool
	// CollectWait overrides the membership collection window (see
	// vsimpl.Config.CollectWait); used by the E9 ablation.
	CollectWait time.Duration
	// OneRound selects the one-round membership protocol of footnote 7
	// (see vsimpl.Config.OneRound); used by experiment E10.
	OneRound bool
	// NoTokenCompaction disables token compaction (see
	// vsimpl.Config.NoTokenCompaction); used by the E11 ablation.
	NoTokenCompaction bool
	// OnDeliver, when non-nil, observes every delivery at every node.
	OnDeliver func(p types.ProcID, d Delivery)
	// StorageLatency is the write latency of each processor's stable-
	// storage device. The default 0 makes records durable on the next
	// event at the same virtual instant, so the WAL costs no virtual
	// time; a positive latency opens the window in which an amnesia
	// crash tears the in-flight record (the torn-write chaos campaign
	// runs with λ = δ/4). Experiment E14 sweeps it.
	StorageLatency time.Duration
	// CheckpointBytes, when positive, turns on WAL snapshot/compaction:
	// once at least this many log bytes have accumulated since the last
	// checkpoint, the node appends a checkpoint record capturing its full
	// VStoTO-critical state at the next quiescent instant, and the log
	// prefix before the previous checkpoint is physically discarded when
	// the record is durable. Replay then starts from the last valid
	// checkpoint instead of folding the whole history. 0 disables (the
	// default; the WAL keeps every record forever, as before).
	CheckpointBytes int
	// MaxPendingBcasts, when positive, bounds each node's accepted-but-
	// undelivered submission backlog: Bcast rejects (returns false)
	// while the node already holds this many of its own submissions that
	// have not yet been delivered back to it. This is the stack's
	// graceful-degradation valve: with no primary component the backlog
	// cannot drain, and without a bound a stalled node buffers client
	// values without limit. 0 (the default) leaves submission unbounded.
	MaxPendingBcasts int
	// Deprecated: every stack runs WAL group commit; the field is ignored.
	GroupCommit bool
	// Deprecated: every stack keeps deliverPipeline delivery records in
	// flight; the field is ignored.
	DeliverPipeline int
	// Deprecated: every stack's token rounds are demand-driven (see
	// vsimpl's tokenHome); the field is ignored.
	EagerTokenRounds bool
	// SkipRecoveryReplay is a test-only hook: a processor recovering from
	// an amnesia crash is rebuilt from an empty snapshot instead of a
	// replay of its WAL. It exists so the chaos tests can verify that the
	// harness catches (and shrinks to) a broken recovery path. Never set
	// it otherwise.
	SkipRecoveryReplay bool
	// Obs, when non-nil, receives metrics and trace events from every
	// layer of the stack (the registry's clock is bound to the cluster's
	// simulated clock). Nil disables all instrumentation at zero cost.
	Obs *obs.Registry
	// Log, when non-nil, receives the cluster's timed external trace — the
	// VS and TO events the property evaluators and conformance checkers
	// read — exactly as LiveOptions.Log does for a live node. Nil records
	// none: the trace holds an event per VS and TO step for the whole run,
	// so only a caller that reads it should pay for it.
	Log *props.Log
}

// deliverPipeline bounds each node's delivery records in flight plus
// durable-awaiting-release: while one record's write rides out the storage
// latency, the next confirmed positions get theirs enqueued behind it, and
// WAL group commit coalesces them into one covering write. Release order
// and write-ahead gating do not depend on the depth.
const deliverPipeline = 64

// NewCluster builds and starts a TO service instance.
func NewCluster(opts Options) *Cluster {
	if opts.N <= 0 {
		panic("stack: N must be positive")
	}
	if opts.Delta <= 0 {
		opts.Delta = time.Millisecond
	}
	if opts.P0Size <= 0 || opts.P0Size > opts.N {
		opts.P0Size = opts.N
	}
	s := sim.New(opts.Seed)
	opts.Obs.SetClock(s.Now)
	oracle := failures.NewOracle(s.Now)
	netCfg := net.Config{Delta: opts.Delta, Jitter: opts.Jitter, Obs: opts.Obs}
	if opts.Wire {
		netCfg.Transcode = codec.Roundtrip
		if opts.Obs != nil {
			// In wire mode every payload is encodable, so the net.bytes
			// counter can account real encoded sizes.
			netCfg.PayloadBytes = func(p any) int {
				b, err := codec.Encode(p)
				if err != nil {
					return 0
				}
				return len(b)
			}
		}
	}
	nw := net.New(s, oracle, netCfg)
	procs := types.RangeProcSet(opts.N)
	p0 := types.NewProcSet(procs.Members()[:opts.P0Size]...)
	qs := opts.Quorums
	if qs == nil {
		qs = types.Majorities{Universe: procs}
	}
	cfg := vsimpl.DefaultConfig(opts.Delta, opts.N)
	// View installations are gated on a λ-latency WAL write, so the
	// patience windows that assume immediate installs must wait λ longer
	// (see vsimpl.Config.InstallSlack).
	cfg.InstallSlack = opts.StorageLatency
	if opts.CollectWait > 0 {
		cfg.CollectWait = opts.CollectWait
	}
	cfg.OneRound = opts.OneRound
	cfg.NoTokenCompaction = opts.NoTokenCompaction
	cfg.Obs = opts.Obs
	c := &Cluster{
		Sim: s, Oracle: oracle, Net: nw,
		Log:        opts.Log,
		Procs:      procs,
		Cfg:        cfg,
		Obs:        opts.Obs,
		tr:         nw,
		qs:         qs,
		skipReplay: opts.SkipRecoveryReplay,
		maxPending: opts.MaxPendingBcasts,
		nodes:      make(map[types.ProcID]*Node, opts.N),
		history:    make(map[types.ProcID][]Delivery, opts.N),
	}
	c.initMetrics(opts.Obs)
	for _, p := range procs.Members() {
		node := newNode(c, p, p0, storage.New(s, opts.StorageLatency))
		node.setCheckpointPolicy(opts.CheckpointBytes)
		if p0.Contains(p) {
			node.sealInitialState(p0)
		}
		if opts.OnDeliver != nil {
			p := p
			node.onRcv = append(node.onRcv, func(d Delivery) { opts.OnDeliver(p, d) })
		}
		node.startFresh(p0)
	}
	for _, p := range procs.Members() {
		c.nodes[p].vs.Start()
	}
	// A processor that goes down (bad or amnesia) pauses its storage
	// device, so no write-ahead gate opens — no delivery is released —
	// while it is down. An amnesia event then wipes the processor's
	// volatile state on the spot, tearing the write its device holds; a
	// processor turning good resumes its device and its enabled steps,
	// rebuilding itself from stable storage first if the outage was an
	// amnesia crash.
	oracle.Watch(func(e failures.Event) {
		if c.m.tracer != nil {
			if e.Channel {
				c.m.tracer.Emit("fault", "channel", e.Pair.From, e.Pair.To, int64(e.Status), e.Status.String())
			} else {
				c.m.tracer.Emit("fault", "proc", e.Proc, obs.NoPeer, int64(e.Status), e.Status.String())
			}
		}
		if e.Channel {
			return
		}
		node, ok := c.nodes[e.Proc]
		if !ok {
			return
		}
		if e.Status.Down() {
			node.wal.Storage().Pause()
		} else {
			node.wal.Storage().Resume()
		}
		switch e.Status {
		case failures.Amnesia:
			node.crash()
		case failures.Good:
			if node.needsRecovery {
				node.recover()
			}
			s.Defer(node.drain)
		}
	})
	return c
}

// initMetrics binds the cluster-level obs handles (no-op on nil).
func (c *Cluster) initMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	c.submitted = make(map[submitKey]submission)
	c.m = clusterMetrics{
		bcasts:           reg.Counter("to.bcasts"),
		bcastRejected:    reg.Counter("to.bcast_rejected"),
		deliveries:       reg.Counter("to.deliveries"),
		crashes:          reg.Counter("stack.crashes"),
		recoveries:       reg.Counter("stack.recoveries"),
		pendingBcasts:    reg.Gauge("stack.pending_bcasts"),
		primary:          reg.Gauge("stack.primary"),
		replayRecords:    reg.Counter("recovery.replay_records"),
		replayBytes:      reg.Counter("recovery.replay_bytes"),
		deliverLatency:   reg.Histogram("to.deliver_latency"),
		labelToConfirm:   reg.Histogram("vstoto.label_to_confirm"),
		confirmToRelease: reg.Histogram("vstoto.confirm_to_release"),
		installGateWait:  reg.Histogram("stack.install_gate_wait"),
		tracer:           reg.Tracer(),
	}
}

// newNode builds the per-processor endpoint shell shared by the simulated
// cluster and the live daemon: the VStoTO automaton, the WAL on the given
// device, and the instrumentation handles. The caller decides how the VS
// incarnation comes up (startFresh for a clean boot, the recovery path for
// a WAL-restored one) and whether to seal the initial durable records.
func newNode(c *Cluster, p types.ProcID, p0 types.ProcSet, dev *storage.Stable) *Node {
	node := &Node{
		id:   p,
		sim:  c.Sim,
		orc:  c.Oracle,
		c:    c,
		proc: vstoto.NewProc(p, c.qs, p0),
		log:  c.Log,
		wal:  recovery.New(dev),
	}
	node.proc.SetObs(c.Obs)
	node.wal.Instrument(c.Obs)
	if c.Obs != nil {
		node.labelAt = make(map[types.Label]sim.Time)
		node.confirmAt = make(map[types.Label]sim.Time)
	}
	c.nodes[p] = node
	return node
}

// sealInitialState makes the initial view and the empty pre-view-change
// establishment durable, so even a processor that crashes before its first
// view change restores a view floor and a high-primary of g0 rather than ⊥.
// Only processors starting inside the initial view have this state.
func (n *Node) sealInitialState(p0 types.ProcSet) {
	n.hasView = true
	n.curView = types.InitialView(p0)
	n.wal.View(n.curView, nil)
	n.wal.Establish(0, nil, nil, 1, types.G0(), nil)
}

// setCheckpointPolicy arms checkpointing (every 'bytes' of log growth;
// 0 disables) and the compaction that rides on it.
func (n *Node) setCheckpointPolicy(bytes int) {
	n.ckptEvery = bytes
	n.wal.SetCompact(bytes > 0)
}

// handlers wires the VS upcalls to this endpoint.
func (n *Node) handlers() vsimpl.Handlers {
	return vsimpl.Handlers{
		Newview: n.onNewview,
		Gprcv:   n.onGprcv,
		Safe:    n.onSafe,
	}
}

// startFresh attaches a clean VS incarnation (initial state, no recovery
// floors).
func (n *Node) startFresh(p0 types.ProcSet) {
	n.vs = vsimpl.NewNode(n.id, n.c.Procs, p0, n.sim, n.c.tr, n.orc, n.c.Cfg, n.handlers())
	n.vs.Log = n.c.Log
	n.vs.SetInstallGate(n.gateInstall)
}

// Node returns the endpoint for processor p.
func (c *Cluster) Node(p types.ProcID) *Node { return c.nodes[p] }

// ApplySchedule arms a failure schedule against the running cluster: every
// event is applied to the oracle at exactly its recorded time. This is the
// chaos harness's injection point; combined with the oracle's recorded
// history it makes fault campaigns replayable byte for byte.
func (c *Cluster) ApplySchedule(s failures.Schedule) { s.ApplyAt(c.Sim, c.Oracle) }

// TotalDeliveries returns the number of deliveries summed over all nodes —
// a cheap non-vacuity signal for fault campaigns (a schedule that
// blackholes everything delivers nothing and "passes" every safety check).
func (c *Cluster) TotalDeliveries() int {
	total := 0
	for _, n := range c.nodes {
		total += n.delivered
	}
	return total
}

// OnDeliver registers an observer invoked on every delivery at every node,
// in delivery order. Observers added after deliveries have occurred see
// only subsequent ones.
func (c *Cluster) OnDeliver(fn func(p types.ProcID, d Delivery)) {
	for _, p := range c.Procs.Members() {
		p := p
		c.nodes[p].onRcv = append(c.nodes[p].onRcv, func(d Delivery) { fn(p, d) })
	}
}

// OnDeliverBatch registers an observer invoked once per released delivery
// batch at every node: all deliveries the node's outermost drain released
// in one quiescent step, in delivery order. Per-delivery OnDeliver
// observers fire first (inside the drain); the batch observer fires after
// the pipeline quiesces, which is the natural cut point for batch-aware
// appliers (internal/rsm's antichain planner). The slice is the node's
// buffer of unflushed deliveries and is valid until the next flush:
// observers must not retain or mutate it.
func (c *Cluster) OnDeliverBatch(fn func(p types.ProcID, batch []Delivery)) {
	for _, p := range c.Procs.Members() {
		p := p
		c.nodes[p].onBatch = append(c.nodes[p].onBatch, func(b []Delivery) { fn(p, b) })
	}
}

// Bcast submits a client value at processor p and reports whether the
// node accepted it (see Node.Bcast).
func (c *Cluster) Bcast(p types.ProcID, a types.Value) bool { return c.nodes[p].Bcast(a) }

// Deliveries returns everything delivered at p so far, in order. A
// simulated cluster keeps this history; a live node does not, and
// returns nil.
func (c *Cluster) Deliveries(p types.ProcID) []Delivery { return c.history[p] }

// ID returns the node's processor identifier.
func (n *Node) ID() types.ProcID { return n.id }

// Proc exposes the underlying VStoTO automaton (read-only use: inspection
// in tests and experiments).
func (n *Node) Proc() *vstoto.Proc { return n.proc }

// VS exposes the underlying VS endpoint.
func (n *Node) VS() *vsimpl.Node { return n.vs }

// WAL exposes the node's write-ahead log (tests and experiments: log
// size, fault injection on the underlying device).
func (n *Node) WAL() *recovery.WAL { return n.wal }

// Recoveries returns how many amnesia restarts this node has performed.
func (n *Node) Recoveries() int { return n.recoveries }

// ReplayStats is what a recovery's WAL replay reported: the records it
// read and the torn or corrupt record it stopped at (Truncated is empty
// for a clean log; TruncatedAt is the offset replay stopped at).
type ReplayStats struct {
	Records     int
	Truncated   string
	TruncatedAt int
}

// replayStats keeps what LastReplay reports of snap, not the state it
// restored.
func replayStats(snap *recovery.Snapshot) *ReplayStats {
	return &ReplayStats{Records: snap.Records, Truncated: snap.Truncated, TruncatedAt: snap.TruncatedAt}
}

// LastReplay returns what the most recent recovery's replay reported (nil
// if the node never recovered).
func (n *Node) LastReplay() *ReplayStats { return n.lastReplay }

// Bcast is the client's bcast(a)_p input with explicit backpressure.
// It reports false — and accepts nothing — when the node's own
// accepted-but-undelivered backlog is at the configured bound (the value
// never reached the WAL, so the client may retry the identical value
// later) or when the processor is amnesiac (no client lives at a wiped
// processor). Otherwise the value becomes durable (a WAL record at the
// origin) before the submission is logged or enters the delay queue, so
// every value the trace obliges the system to deliver survives an
// amnesia crash of its origin.
func (n *Node) Bcast(a types.Value) bool {
	if n.orc.Proc(n.id) == failures.Amnesia {
		return false
	}
	if max := n.c.maxPending; max > 0 && n.pendingOwn >= max {
		n.c.m.bcastRejected.Inc()
		return false
	}
	n.pendingOwn++
	n.c.m.pendingBcasts.Max(int64(n.pendingOwn))
	n.bcastSeq++
	seq := n.bcastSeq
	n.c.m.bcasts.Inc()
	if n.c.submitted != nil {
		// Submission instant, for the end-to-end delivery latency. Keyed by
		// origin and bcast sequence; recovery restores bcastSeq from the WAL,
		// so keys stay unique across incarnations.
		n.c.submitted[submitKey{origin: n.id, seq: seq}] = submission{at: n.sim.Now()}
	}
	inc := n.incarnation
	n.waPending++
	n.wal.Bcast(seq, a, func() {
		if n.incarnation != inc {
			return
		}
		n.waPending--
		if n.log != nil {
			n.log.Append(props.Event{
				T: n.sim.Now(), Kind: props.TOBcast, P: n.id, Value: a, ValueSeq: seq,
			})
		}
		n.delaySeqs = append(n.delaySeqs, seq)
		n.proc.Bcast(a)
		n.drain()
	})
	return true
}

// DeliveredCount returns how many values this node has delivered.
func (n *Node) DeliveredCount() int { return n.delivered }

// PendingBcasts returns the node's accepted-but-undelivered submission
// backlog — the quantity Bcast bounds.
func (n *Node) PendingBcasts() int { return n.pendingOwn }

// Primary reports whether the node's current view is a primary view: a
// quorum-contained view whose establishment completed here. Only primary
// members extend the total order, so !Primary() means new submissions
// cannot currently be delivered anywhere from this node's perspective.
func (n *Node) Primary() bool { return n.proc.Primary() }

// Stalled reports the graceful-degradation condition surfaced to clients:
// the node is not in an established primary component, so accepted
// submissions queue without delivery until a primary re-forms.
func (n *Node) Stalled() bool { return !n.proc.Primary() }

func (n *Node) onNewview(v types.View) {
	// The view record is already durable: installation is write-ahead
	// gated (see gateInstall), and this handler runs from the commit.
	n.hasView = true
	n.curView = v
	n.proc.Newview(v)
	if n.proc.Primary() {
		n.c.m.primary.Set(1)
	} else {
		n.c.m.primary.Set(0)
	}
	n.drain()
}

// gateInstall is the membership layer's installation gate (see
// membership.Former.Gate): the accepted view's record is written first,
// and the installation commits only from the record's completion. An
// amnesia crash in between tears the record and the incarnation guard
// discards the commit, so an installation is never announced without a
// durable record — the restored view floor always covers every announced
// installation, whatever the storage latency.
func (n *Node) gateInstall(v types.View, commit func()) {
	inc := n.incarnation
	entered := n.sim.Now()
	n.waPending++
	n.wal.View(v, func() {
		if n.incarnation != inc {
			return
		}
		n.waPending--
		n.c.m.installGateWait.Record(n.sim.Now().Sub(entered))
		commit()
	})
}

func (n *Node) onGprcv(from types.ProcID, payload any) {
	switch m := payload.(type) {
	case vstoto.LabeledValue:
		before := len(n.proc.Order)
		n.proc.GprcvValue(m)
		if len(n.proc.Order) > before {
			n.wal.OrderAppend(len(n.proc.Order), m.L, m.A, nil)
		}
	case *vstoto.Summary:
		collecting := n.proc.Status == vstoto.StatusCollect
		before := n.proc.Order
		n.proc.GprcvSummary(from, m)
		if collecting && n.proc.Status == vstoto.StatusNormal {
			// The state exchange completed: persist what it changed — the
			// order past its longest common prefix with the order before,
			// with each new label's value, nextconfirm and highprimary — in
			// one record. The order before is what the log replays to
			// (proc.Order changes only here and by logged order appends;
			// recovery restores it from a replay), and establishment
			// assigns a fresh slice, leaving it intact. Establish asserts
			// that the new suffix lies inside the content.
			after := n.proc.Order
			keep := 0
			for keep < len(before) && keep < len(after) && before[keep] == after[keep] {
				keep++
			}
			n.wal.Establish(keep, after[keep:], n.proc, n.proc.NextConfirm, n.proc.HighPrimary, nil)
		}
	default:
		panic("stack: unexpected VS payload")
	}
	n.drain()
}

func (n *Node) onSafe(from types.ProcID, payload any) {
	switch m := payload.(type) {
	case vstoto.LabeledValue:
		n.proc.SafeValue(m)
	case *vstoto.Summary:
		n.proc.SafeSummary(from)
	default:
		panic("stack: unexpected VS payload")
	}
	n.drain()
}

// crash wipes the node's volatile state (failures.Amnesia): the VS
// incarnation is stopped for good, the storage device tears its in-flight
// write and discards its queue, and a snapshot of what a restart will
// restore is recorded for the rejoin-safety check. The node stays inert
// until the oracle turns it good again.
func (n *Node) crash() {
	n.c.m.crashes.Inc()
	n.c.m.tracer.Emit("stack", "crash", n.id, obs.NoPeer, int64(n.incarnation+1), "")
	n.incarnation++
	n.deliverInFlight = 0
	n.ready = n.ready[:0]
	n.delaySeqs = nil
	n.needsRecovery = true
	n.waPending = 0
	n.ckptPending = false
	n.hasView = false
	n.vs.Stop()
	st := n.wal.Storage()
	st.Drop()
	if n.c.Log == nil {
		return // no trace for props.CheckRejoinSafety to hold it against
	}
	snap := recovery.Replay(st.Contents())
	cs := props.CrashSnapshot{P: n.id, T: n.sim.Now()}
	for _, d := range snap.Delivered {
		cs.Persisted = append(cs.Persisted, props.PersistedDelivery{
			From: d.From, Seq: d.FromSeq, Value: d.Value,
		})
	}
	n.c.Crashes = append(n.c.Crashes, cs)
}

// recover rebuilds the node from a replay of its WAL: a fresh VStoTO
// automaton restored to the last durable establishment (extended by
// durable order appends), the persisted delivery prefix marked reported,
// durable-but-unlabeled submissions back in the delay queue, and a fresh
// VS incarnation holding no view but respecting the persisted view and
// send-sequence floors. Membership pulls it back into a view through the
// ordinary probe/timeout machinery.
func (n *Node) recover() {
	disk := n.wal.Storage().Contents()
	if n.c.skipReplay {
		disk = nil // deliberately broken: restart from nothing
	}
	snap := recovery.Replay(disk)
	n.lastReplay = replayStats(snap)
	n.needsRecovery = false
	n.recoveries++
	n.c.m.recoveries.Inc()
	n.c.m.replayRecords.Add(int64(snap.Records))
	n.c.m.replayBytes.Add(int64(len(disk)))
	n.c.m.tracer.Emit("stack", "recover", n.id, obs.NoPeer, int64(snap.Records), snap.Truncated)

	if !n.c.skipReplay {
		// Discard the torn tail — replay stops at the first torn record,
		// so anything appended after it would be dead bytes a future
		// replay never reaches — and resync the WAL's logical offsets
		// (the enqueued records the crash discarded left them ahead of
		// the durable image).
		st := n.wal.Storage()
		base := st.Base()
		if snap.TruncatedAt < len(disk) {
			st.TruncateTail(base + snap.TruncatedAt)
		}
		n.wal.Resync(base, snap)
	}

	n.restoreProc(snap)

	// The rebuilt VS incarnation starts only once its recovery marker is
	// durable: the marker count is then a strictly increasing incarnation
	// number even across crashes during recovery, and it partitions the
	// send-sequence space so MsgIDs never repeat. Until the marker's
	// completion the node is deaf (the wiped incarnation stays registered
	// but dead); the membership machinery pulls it back in afterwards.
	inc := snap.Incarnations + 1
	guard := n.incarnation
	n.waPending++
	n.wal.Recovered(inc, func() {
		if n.incarnation != guard {
			return
		}
		n.waPending--
		n.startRecovered(snap, inc)
	})
}

// restoreProc rebuilds the VStoTO automaton from a WAL replay snapshot:
// restored to the last durable establishment (extended by durable order
// appends), the persisted delivery prefix marked reported, and durable-
// but-unlabeled submissions back in the delay queue.
func (n *Node) restoreProc(snap *recovery.Snapshot) {
	proc := vstoto.NewProc(n.id, n.c.qs, types.ProcSet{})
	proc.Order = append([]types.Label(nil), snap.Order...)
	proc.NextConfirm = snap.NextConfirm
	proc.NextReport = len(snap.Delivered) + 1
	proc.HighPrimary = snap.HighPrimary
	proc.MergeContent(vstoto.RunsOf(snap.Content))
	for _, pv := range snap.Pending {
		proc.Delay = append(proc.Delay, pv.Value)
		n.delaySeqs = append(n.delaySeqs, pv.Seq)
	}
	n.proc = proc
	n.bcastSeq = snap.BcastSeq
	// The backlog bound survives restarts: every durable submission not in
	// the durable own-origin delivered prefix is still outstanding.
	own := 0
	for _, d := range snap.Delivered {
		if d.From == n.id {
			own++
		}
	}
	n.pendingOwn = snap.BcastSeq - own
	if n.pendingOwn < 0 {
		n.pendingOwn = 0
	}
	n.hasView = snap.HasView
	n.curView = snap.View
}

// startRecovered brings up the rebuilt VS incarnation; it runs from the
// recovery marker's completion callback.
func (n *Node) startRecovered(snap *recovery.Snapshot, inc int) {
	n.walInc = inc
	n.vs = vsimpl.NewRecoveredNode(n.id, n.c.Procs, n.sim, n.c.tr, n.orc, n.c.Cfg,
		vsimpl.Resume{ViewFloor: snap.ViewFloor(), SendSeqFloor: inc * incarnationSeqSpan},
		n.handlers())
	n.vs.Log = n.c.Log
	n.vs.SetInstallGate(n.gateInstall)
	n.vs.Start()
	n.drain()
}

// drain runs every enabled locally controlled action to quiescence: label,
// gpsnd (values and summaries), confirm, and brcv, interleaved in a fixed
// order. A stopped processor takes no steps; a paused (bad) processor's
// inputs have already mutated state, which models the paper's assumption
// that crashes suspend progress but preserve state; an amnesiac processor
// was rebuilt from its WAL before this runs again.
//
// Deliveries are write-ahead gated: the brcv branch writes the delivery
// record and releases the value to the client only from the record's
// completion callback, so the durable delivery prefix never lags the
// delivered one.
func (n *Node) drain() {
	if n.orc.Proc(n.id).Down() {
		return
	}
	n.drainDepth++
	for {
		progress := false
		for len(n.ready) > 0 {
			// Pop in place: the queue is at most the pipeline depth, and
			// its array is reused for the life of the node.
			seq := n.ready[0]
			n.ready = append(n.ready[:0], n.ready[1:]...)
			n.performBrcv(seq)
			progress = true
		}
		if a, ok := n.proc.LabelEnabled(); ok {
			seq := n.delaySeqs[0]
			n.delaySeqs = n.delaySeqs[1:]
			l := n.proc.Label()
			if n.labelAt != nil {
				n.labelAt[l] = n.sim.Now()
			}
			n.wal.Label(seq, l, a, nil)
			progress = true
		}
		if n.proc.GpsndSummaryEnabled() {
			n.vs.Gpsnd(n.proc.GpsndSummary())
			progress = true
		}
		if _, ok := n.proc.GpsndValueEnabled(); ok {
			n.vs.Gpsnd(n.proc.GpsndValue())
			progress = true
		}
		if n.proc.ConfirmEnabled() {
			if n.confirmAt != nil {
				l := n.proc.Order[n.proc.NextConfirm-1]
				n.confirmAt[l] = n.sim.Now()
				if at, ok := n.labelAt[l]; ok {
					// Only the origin holds a labelAt entry, so this samples
					// the origin-side label→confirm latency once per label.
					n.c.m.labelToConfirm.Record(n.sim.Now().Sub(at))
					delete(n.labelAt, l)
				}
			}
			n.proc.Confirm()
			progress = true
		}
		// Write delivery records ahead of the release point, up to the
		// pipeline depth, so consecutive deliveries share the storage
		// latency instead of waiting a full λ each.
		for n.deliverInFlight+len(n.ready) < deliverPipeline {
			pos := n.proc.NextReport + len(n.ready) + n.deliverInFlight
			from, a, ok := n.proc.BrcvEnabledAt(pos)
			if !ok {
				break
			}
			l := n.proc.Order[pos-1]
			inc := n.incarnation
			seq := n.originSeq(pos, from)
			n.deliverInFlight++
			n.waPending++
			n.wal.Deliver(pos, l, from, seq, a, func() {
				if n.incarnation != inc {
					return
				}
				n.waPending--
				n.deliverInFlight--
				n.ready = append(n.ready, seq)
				n.drain()
			})
		}
		if !progress {
			break
		}
	}
	n.drainDepth--
	if n.drainDepth == 0 && len(n.batch) > 0 {
		batch := n.batch
		n.batch = n.batch[:0]
		for _, fn := range n.onBatch {
			fn(batch)
		}
	}
	n.maybeCheckpoint()
}

// maybeCheckpoint appends a checkpoint record once ckptEvery bytes of log
// have accumulated since the last one, but only at a quiescent instant:
// no write-ahead record in flight (between its enqueue and completion the
// log runs ahead of memory), no durable delivery awaiting release, and
// the automaton in normal status. Write-behind records still queued are
// fine — they precede the checkpoint through the single FIFO write head,
// so the durable prefix ending at the checkpoint always replays to
// exactly the captured state.
func (n *Node) maybeCheckpoint() {
	if n.ckptEvery <= 0 || n.ckptPending || n.waPending > 0 || len(n.ready) > 0 ||
		n.proc.Status != vstoto.StatusNormal || n.wal.SinceCheckpoint() < n.ckptEvery {
		return
	}
	cs := recovery.CheckpointState{
		HasView:        n.hasView,
		View:           n.curView,
		Order:          n.proc.Order,
		Content:        n.proc,
		NextConfirm:    n.proc.NextConfirm,
		HighPrimary:    n.proc.HighPrimary,
		DeliveredCount: n.proc.NextReport - 1,
		BcastSeq:       n.bcastSeq,
		Incarnations:   n.walInc,
	}
	for i, a := range n.proc.Delay {
		cs.Pending = append(cs.Pending, recovery.PendingValue{Seq: n.delaySeqs[i], Value: a})
	}
	n.ckptPending = true
	n.checkpoints++
	inc := n.incarnation
	n.wal.Checkpoint(cs, func() {
		if n.incarnation != inc {
			return
		}
		n.ckptPending = false
	})
}

// Checkpoints returns how many checkpoint records this node has appended
// (across its current process lifetime).
func (n *Node) Checkpoints() int { return n.checkpoints }

// performBrcv releases the delivery whose record just became durable; seq
// is the origin seq its record carries.
func (n *Node) performBrcv(seq int) {
	from, a, ok := n.proc.BrcvEnabled()
	if !ok {
		return
	}
	reportIdx := n.proc.NextReport // 1-based position about to be consumed
	n.proc.Brcv()
	d := Delivery{From: from, Value: a, Time: n.sim.Now()}
	n.delivered++
	if n.c.history != nil {
		n.c.history[n.id] = append(n.c.history[n.id], d)
	}
	if len(n.onBatch) > 0 {
		n.batch = append(n.batch, d)
	}
	if from == n.id && n.pendingOwn > 0 {
		n.pendingOwn--
	}
	n.c.m.deliveries.Inc()
	// The latency histogram and the trace both key the release by its
	// origin's bcast sequence.
	if n.c.submitted != nil {
		l := n.proc.Order[reportIdx-1]
		if at, ok := n.confirmAt[l]; ok {
			n.c.m.confirmToRelease.Record(n.sim.Now().Sub(at))
			delete(n.confirmAt, l)
		}
		// A node releases a value at most once, so the last node to
		// release it deletes its entry.
		k := submitKey{origin: from, seq: seq}
		if sub, ok := n.c.submitted[k]; ok {
			n.c.m.deliverLatency.Record(n.sim.Now().Sub(sub.at))
			if sub.released++; sub.released == len(n.c.nodes) {
				delete(n.c.submitted, k)
			} else {
				n.c.submitted[k] = sub
			}
		}
	}
	if n.log != nil {
		n.log.Append(props.Event{
			T: n.sim.Now(), Kind: props.TOBrcv, P: n.id, From: from,
			Value: a, ValueSeq: seq,
		})
	}
	for _, fn := range n.onRcv {
		fn(d)
	}
}

// originSeq computes the per-origin submission index of the delivered
// value: among the labels in this node's order up to and including
// position idx, the count from the same origin. Because TO delivers each
// origin's values in submission order with no gaps, this equals the
// origin's bcast sequence number — giving the log the identity it needs to
// match brcv events with bcast events. drain computes it once per
// delivery record, which carries it to the release through ready.
func (n *Node) originSeq(idx int, origin types.ProcID) int {
	count := 0
	for i := 0; i < idx && i < len(n.proc.Order); i++ {
		if n.proc.Order[i].Origin == origin {
			count++
		}
	}
	return count
}

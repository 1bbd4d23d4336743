package stack

import (
	"io"
	"time"

	"repro/internal/failures"
	"repro/internal/obs"
	"repro/internal/props"
	"repro/internal/recovery"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/vsimpl"
)

// LiveOptions configures one processor's endpoint for live deployment:
// the daemon runs exactly one Node of the cluster, over a real transport,
// on a simulator that the caller paces against the wall clock
// (as pgcs.LiveCluster does). Faults are real — process kills, severed
// sockets — so the failure oracle stays all-good and the WAL mirrors to a
// real file for crash recovery across process restarts.
type LiveOptions struct {
	// Self is this processor; Universe the full cluster; P0 the initial
	// view's membership.
	Self     types.ProcID
	Universe types.ProcSet
	P0       types.ProcSet
	// Delta is the paper's δ the protocol timers are derived from. It must
	// be the same at every node and should generously cover real network
	// latency plus pacer granularity (localhost: a few ms).
	Delta time.Duration
	// Sim is the caller-paced simulator all protocol events run on.
	Sim *sim.Sim
	// Transport carries packets to peers; the caller owns its lifecycle
	// and must deliver inbound packets on the simulator's goroutine.
	Transport transport.Transport
	// WALReplay is recovery.Replay of the node's WAL file from prior
	// incarnations (nil for a first boot, as is one whose TruncatedAt is
	// 0). Otherwise the node boots through the amnesia-recovery path:
	// state restored from the snapshot, a fresh incarnation above every
	// durable floor. The boot replays nothing itself.
	WALReplay *recovery.Snapshot
	// WALMirror receives every newly durable WAL byte, in order —
	// normally the same file WALReplay was read from, opened for append.
	// With CheckpointBytes set it must also implement
	// storage.MirrorTruncator, so compaction can discard the file's
	// prefix.
	WALMirror io.Writer
	// The file must already have any torn tail removed (the caller
	// truncates it at WALReplay.TruncatedAt before booting): new records
	// are appended at the physical end of the file, and a replay only
	// reads past a tear's offset if the tear is gone.
	//
	// CheckpointBytes arms WAL snapshot/compaction exactly as
	// Options.CheckpointBytes does in simulation. 0 disables.
	CheckpointBytes int
	// MaxPendingBcasts bounds the node's accepted-but-undelivered
	// submission backlog, exactly as Options.MaxPendingBcasts does in
	// simulation: Bcast rejects past the bound. 0 disables.
	MaxPendingBcasts int
	// Log, when non-nil, receives the node's timed external trace, as
	// Options.Log does in simulation — set its Sink to stream events to
	// disk instead of holding them. Nil records none. Obs enables
	// instrumentation.
	Log *props.Log
	Obs *obs.Registry
	// OnDeliver observes every TO delivery at this node, in order.
	OnDeliver func(Delivery)
}

// NewLiveNode builds and starts a single processor's full TO stack (VS
// implementation, VStoTO, write-ahead recovery log) for live deployment.
// The returned Node is the same type the simulated Cluster hands out, so
// everything layered on Node (Bcast, DeliveredCount, WAL inspection) works
// unchanged. The endpoint becomes active only as the caller's pacer runs
// the simulator; nothing happens synchronously here beyond scheduling.
func NewLiveNode(opts LiveOptions) *Node {
	if opts.Delta <= 0 {
		opts.Delta = time.Millisecond
	}
	s := opts.Sim
	opts.Obs.SetClock(s.Now)
	cfg := vsimpl.DefaultConfig(opts.Delta, opts.Universe.Size())
	cfg.Obs = opts.Obs
	c := &Cluster{
		Sim: s,
		// All-good oracle: in live mode faults are physical (killed
		// processes, closed sockets), not injected into the stack.
		Oracle:     failures.NewOracle(s.Now),
		Log:        opts.Log,
		Procs:      opts.Universe,
		Cfg:        cfg,
		Obs:        opts.Obs,
		tr:         opts.Transport,
		qs:         types.Majorities{Universe: opts.Universe},
		maxPending: opts.MaxPendingBcasts,
		nodes:      make(map[types.ProcID]*Node, 1),
	}
	c.initMetrics(opts.Obs)
	dev := storage.New(s, 0)
	dev.Mirror = opts.WALMirror
	// The device starts empty but logically continues the WAL file: its
	// bytes live at logical offsets after the prior incarnations' records.
	snap := opts.WALReplay
	retained := 0
	if snap != nil {
		retained = snap.TruncatedAt
	}
	dev.SetBase(retained)
	n := newNode(c, opts.Self, opts.P0, dev)
	n.setCheckpointPolicy(opts.CheckpointBytes)
	if opts.OnDeliver != nil {
		n.onRcv = append(n.onRcv, opts.OnDeliver)
	}

	if retained == 0 {
		// First boot: seal the initial durable state (if inside the
		// initial view) and come up fresh.
		if opts.P0.Contains(opts.Self) {
			n.sealInitialState(opts.P0)
		}
		n.startFresh(opts.P0)
		n.vs.Start()
		return n
	}

	// Restart: the previous incarnation of this process died (crash,
	// SIGKILL, orderly stop — indistinguishable, and treated exactly like
	// the simulated amnesia crash). Rebuild from the WAL file and rejoin
	// through the ordinary membership machinery, one incarnation up. The
	// replay is the caller's, of the file as it found it, so a torn tail
	// the caller cut shows in LastReplay.
	n.lastReplay = replayStats(snap)
	n.recoveries++
	c.m.recoveries.Inc()
	c.m.replayRecords.Add(int64(snap.Records))
	c.m.replayBytes.Add(int64(retained))
	n.restoreProc(snap)
	// The file's offsets are the log's logical offsets (logical 0 = file
	// start at this boot), and the file has no torn tail.
	n.wal.Resync(0, snap)
	inc := snap.Incarnations + 1
	n.waPending++
	n.wal.Recovered(inc, func() {
		n.waPending--
		n.startRecovered(snap, inc)
	})
	return n
}

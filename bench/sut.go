package main

// sut.go is the only file of the benchmark that imports the repository's
// packages. Everything else in bench/ programs against the aliases and thin
// wrappers below, so a later change to the system under test has exactly
// one file to keep compiling (bench/README.md lists the symbols). Only the
// batched default path is configured here: group commit on, delivery
// pipeline 64, eager token rounds, transport batching at its defaults.

import (
	"time"

	"repro/internal/check"
	"repro/internal/codec"
	"repro/internal/failures"
	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/props"
	"repro/internal/recovery"
	"repro/internal/rsm"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/vsimpl"
	"repro/internal/vstoto"
)

type (
	procID      = types.ProcID
	value       = types.Value
	simTime     = sim.Time
	delivery    = stack.Delivery
	cluster     = stack.Cluster
	memory      = rsm.Memory
	registry    = obs.Registry
	snapshot    = obs.Snapshot
	histSummary = obs.HistogramSummary
	faultEvent  = failures.Event
	faultPair   = failures.Pair
	faultStatus = failures.Status
	schedule    = failures.Schedule
	toChecker   = check.TOChecker
	engine      = live.Engine
	liveClient  = live.Client
	liveConfig  = live.Config
	exploreRes  = vstoto.ExploreResult
)

const (
	statusGood    = failures.Good
	statusBad     = failures.Bad
	statusAmnesia = failures.Amnesia
)

func newRegistry() *registry   { return obs.New() }
func newTOChecker() *toChecker { return check.NewTOChecker() }

// simPipeline is pgcsd's default delivery-pipeline depth under group commit
// (live.StartEngine picks 64); the simulated cluster is given the same.
const simPipeline = 64

// newSimCluster builds the deterministic n-processor stack the sim
// workloads drive: wire-codec round trips on every hop, jittered (0, δ]
// channel delays drawn from the seed, storage latency λ = δ/4 and the
// batched settings. reg may be nil (tracing off).
func newSimCluster(seed int64, n int, delta time.Duration, reg *registry, onDeliver func(procID, delivery)) *cluster {
	return stack.NewCluster(stack.Options{
		Seed:             seed,
		N:                n,
		Delta:            delta,
		Jitter:           true,
		Wire:             true,
		StorageLatency:   delta / 4,
		GroupCommit:      true,
		DeliverPipeline:  simPipeline,
		EagerTokenRounds: true,
		Obs:              reg,
		OnDeliver:        onDeliver,
	})
}

func newMemory(c *cluster) *memory { return rsm.New(c) }

// encodeOp is the TO value rsm.Memory broadcasts for the nonce-th operation
// submitted at one processor; the checker is fed these independently of
// what the stack logged.
func encodeOp(read bool, key, val string, nonce int) value {
	kind := "w"
	if read {
		kind = "r"
	}
	return rsm.Op{Kind: kind, Key: key, Val: val, Nonce: nonce}.Encode()
}

// analyticBounds returns the paper's §8 bounds for the cluster's timing
// configuration: d = 2π + nδ and b = 9δ + max{π + (n+3)δ, μ}.
func analyticBounds(c *cluster) (b, d time.Duration) {
	n := c.Procs.Size()
	return c.Cfg.AnalyticB(n), c.Cfg.AnalyticD(n)
}

// walImage returns a copy of p's durable WAL bytes.
func walImage(c *cluster, p procID) []byte { return c.Node(p).WAL().Storage().Contents() }

func replayWAL(image []byte) (records int, truncated string) {
	s := recovery.Replay(image)
	return s.Records, s.Truncated
}

// walBench appends n bcast/label/deliver record triples to a fresh WAL on a
// zero-latency device under group commit and runs the device to
// completion; it returns the record count (the caller times the call).
func walBench(n int, payload value) int {
	s := sim.New(1)
	w := recovery.New(storage.New(s, 0))
	w.SetGroupCommit(0)
	g0 := types.G0()
	for i := 1; i <= n; i++ {
		l := types.Label{ID: g0, Seqno: i, Origin: 0}
		w.Bcast(i, payload, nil)
		w.Label(i, l, payload, nil)
		w.Deliver(i, l, 0, i, payload, nil)
		if i%64 == 0 {
			_ = s.RunFor(0) // drain the device, as a tick of the pacer would
		}
	}
	_ = s.RunFor(0)
	return 3 * n
}

// codecMix is the fixed payload mix the codec layer metric is timed over:
// labeled values (the data path), a 50-entry state-exchange summary (the
// view-change path) and a token carrying eight values.
func codecMix() []any {
	g0 := types.G0()
	lv := vstoto.LabeledValue{L: types.Label{ID: g0, Seqno: 42, Origin: 3}, A: value(padValue("codec", 64))}
	con := make(map[types.Label]types.Value, 50)
	ord := make([]types.Label, 0, 50)
	for i := 1; i <= 50; i++ {
		l := types.Label{ID: g0, Seqno: i, Origin: types.ProcID(i % 5)}
		con[l] = value(padValue("s", 64))
		ord = append(ord, l)
	}
	sum := &vstoto.Summary{Con: con, Ord: ord, Next: 25, High: g0}
	tok := &vsimpl.TokenPkt{View: types.InitialView(types.RangeProcSet(5)), Base: 7, Delivered: map[types.ProcID]int{0: 7, 1: 7, 2: 6, 3: 7, 4: 5}}
	for i := 0; i < 8; i++ {
		tok.Msgs = append(tok.Msgs, vsimpl.TokenMsg{ID: check.MsgID{Sender: types.ProcID(i % 5), Seq: i + 1}, From: types.ProcID(i % 5), Payload: lv})
	}
	return []any{lv, lv, lv, lv, lv, lv, tok, tok, tok, sum}
}

func codecRoundtrip(buf []byte, payload any) ([]byte, error) {
	buf, err := codec.AppendEncode(buf[:0], payload)
	if err != nil {
		return buf, err
	}
	_, err = codec.Decode(buf)
	return buf, err
}

// exploreBounded runs the VStoTO model checker on the ISSUE's bounded
// configuration (n = 2, 2 bcasts, one 2-member view, POR off).
func exploreBounded(maxStates, workers int, reg *registry) (exploreRes, error) {
	procs := types.RangeProcSet(2)
	return vstoto.Explore(vstoto.ExploreConfig{
		N:         2,
		MaxBcasts: 2,
		Views:     []types.View{{ID: types.ViewID{Epoch: 2, Proc: 1}, Set: procs}},
		MaxStates: maxStates,
		Workers:   workers,
		Obs:       reg,
	})
}

// liveCluster is three in-process engines on loopback TCP with real WAL
// and trace files under dir.
type liveCluster struct {
	cfg     *liveConfig
	engines []*engine
	traces  []string
	wals    []string
}

// startLiveCluster boots n engines with pgcsd's defaults (2 ms tick,
// commit window 0, max-pending 4096) on the given addresses.
func startLiveCluster(dir string, seed int64, delta time.Duration, addrs, clientAddrs []string) (*liveCluster, error) {
	cfg := &live.Config{DeltaMS: int(delta / time.Millisecond), Seed: seed}
	for i := range addrs {
		cfg.Nodes = append(cfg.Nodes, live.NodeConfig{ID: i, Addr: addrs[i], ClientAddr: clientAddrs[i]})
	}
	lc := &liveCluster{cfg: cfg}
	for i := range addrs {
		wal := dir + "/node" + itoa(i) + ".wal"
		trace := dir + "/node" + itoa(i) + ".jsonl"
		e, err := live.StartEngine(live.EngineOptions{
			Config:     cfg,
			Self:       types.ProcID(i),
			WALPath:    wal,
			TracePath:  trace,
			MaxPending: 4096,
		})
		if err != nil {
			lc.close()
			return nil, err
		}
		lc.engines = append(lc.engines, e)
		lc.traces = append(lc.traces, trace)
		lc.wals = append(lc.wals, wal)
	}
	return lc, nil
}

func (lc *liveCluster) close() {
	for _, e := range lc.engines {
		e.Close()
	}
}

func dialLive(addr string, timeout time.Duration) (*liveClient, error) {
	return live.DialClient(addr, timeout)
}

// checkLiveTraces runs the merged TO conformance check over the engines'
// JSONL trace files (engines must be closed) and returns the merged order
// length and each node's delivered count.
func checkLiveTraces(traces []string) (orderLen int, delivered []int, err error) {
	logs := make(map[types.ProcID]*props.Log, len(traces))
	for i, f := range traces {
		lg, err := live.ReadTraceFiles(f)
		if err != nil {
			return 0, nil, err
		}
		logs[types.ProcID(i)] = lg
	}
	chk, err := live.CheckMergedTO(logs)
	if err != nil {
		return 0, nil, err
	}
	for i := range traces {
		delivered = append(delivered, chk.DeliveredCount(types.ProcID(i)))
	}
	return chk.OrderLen(), delivered, nil
}

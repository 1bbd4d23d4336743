// Package baseline is the comparison point discussed in the paper's
// introduction: a Keidar–Dolev-style total order protocol that writes to
// stable storage on the critical path. It runs the same VStoTO algorithm
// over the same VS service as package stack, but imposes the persistence
// discipline of [35, 36]: a client value is written to the local stable log
// before it is sent into the group, and every confirmed position is written
// before it is released to the client.
//
// The point of the comparison (experiment E5) is the latency shape: the
// VStoTO stack's steady-state delivery latency is independent of storage
// latency, while the baseline's grows with it — the trade the introduction
// describes ("their solution trades latency for fault-tolerance").
package baseline

import (
	"time"

	"repro/internal/failures"
	"repro/internal/net"
	"repro/internal/props"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/vsimpl"
	"repro/internal/vstoto"
)

// Delivery is one totally ordered delivery to the client.
type Delivery struct {
	From  types.ProcID
	Value types.Value
	Time  sim.Time
}

// Options configures NewCluster.
type Options struct {
	Seed           int64
	N              int
	Delta          time.Duration
	StorageLatency time.Duration
}

// Cluster is a baseline TO service instance.
type Cluster struct {
	Sim    *sim.Sim
	Oracle *failures.Oracle
	Log    *props.Log
	Procs  types.ProcSet
	Cfg    vsimpl.Config
	nodes  map[types.ProcID]*node
}

type node struct {
	id                types.ProcID
	sim               *sim.Sim
	orc               *failures.Oracle
	proc              *vstoto.Proc
	vs                *vsimpl.Node
	log               *props.Log
	stable            *storage.Stable
	persistingConfirm bool

	bcastSeq   int
	deliveries []Delivery
	// fromOrigin counts the values delivered here per origin: a delivery's
	// count is its origin-local sequence number, the trace's ValueSeq.
	fromOrigin []int
}

// NewCluster builds and starts a baseline instance.
func NewCluster(opts Options) *Cluster {
	if opts.Delta <= 0 {
		opts.Delta = time.Millisecond
	}
	s := sim.New(opts.Seed)
	oracle := failures.NewOracle(s.Now)
	nw := net.New(s, oracle, net.Config{Delta: opts.Delta})
	procs := types.RangeProcSet(opts.N)
	qs := types.Majorities{Universe: procs}
	cfg := vsimpl.DefaultConfig(opts.Delta, opts.N)
	c := &Cluster{
		Sim: s, Oracle: oracle,
		Log:   &props.Log{},
		Procs: procs,
		Cfg:   cfg,
		nodes: make(map[types.ProcID]*node, opts.N),
	}
	for _, p := range procs.Members() {
		nd := &node{
			id:         p,
			sim:        s,
			orc:        oracle,
			proc:       vstoto.NewProc(p, qs, procs),
			log:        c.Log,
			stable:     storage.New(s, opts.StorageLatency),
			fromOrigin: make([]int, opts.N),
		}
		nd.vs = vsimpl.NewNode(p, procs, procs, s, nw, oracle, cfg, vsimpl.Handlers{
			Newview: func(v types.View) { nd.proc.Newview(v); nd.drain() },
			Gprcv:   nd.onGprcv,
			Safe:    nd.onSafe,
		})
		nd.vs.Log = c.Log
		c.nodes[p] = nd
	}
	for _, p := range procs.Members() {
		c.nodes[p].vs.Start()
	}
	return c
}

// Bcast submits a client value at p: it is stable-logged before entering
// the protocol.
func (c *Cluster) Bcast(p types.ProcID, a types.Value) {
	nd := c.nodes[p]
	nd.bcastSeq++
	seq := nd.bcastSeq
	if nd.log != nil {
		nd.log.Append(props.Event{T: nd.sim.Now(), Kind: props.TOBcast, P: p, Value: a, ValueSeq: seq})
	}
	nd.stable.Write(func() {
		nd.proc.Bcast(a)
		nd.drain()
	})
}

// Deliveries returns everything delivered at p, in order.
func (c *Cluster) Deliveries(p types.ProcID) []Delivery { return c.nodes[p].deliveries }

// StorageWrites returns the number of stable writes completed at p.
func (c *Cluster) StorageWrites(p types.ProcID) int { return c.nodes[p].stable.Writes() }

func (nd *node) onGprcv(from types.ProcID, payload any) {
	switch m := payload.(type) {
	case vstoto.LabeledValue:
		nd.proc.GprcvValue(m)
	case *vstoto.Summary:
		nd.proc.GprcvSummary(from, m)
	}
	nd.drain()
}

func (nd *node) onSafe(from types.ProcID, payload any) {
	switch m := payload.(type) {
	case vstoto.LabeledValue:
		nd.proc.SafeValue(m)
	case *vstoto.Summary:
		nd.proc.SafeSummary(from)
	}
	nd.drain()
}

// drain runs the enabled actions, but confirms only through the stable
// log: each confirmed position is persisted before it takes effect (and
// hence before the value can be released).
func (nd *node) drain() {
	if nd.orc.Proc(nd.id) == failures.Bad {
		return
	}
	for {
		progress := false
		if _, ok := nd.proc.LabelEnabled(); ok {
			nd.proc.Label()
			progress = true
		}
		if nd.proc.GpsndSummaryEnabled() {
			nd.vs.Gpsnd(nd.proc.GpsndSummary())
			progress = true
		}
		if _, ok := nd.proc.GpsndValueEnabled(); ok {
			nd.vs.Gpsnd(nd.proc.GpsndValue())
			progress = true
		}
		if nd.proc.ConfirmEnabled() && !nd.persistingConfirm {
			nd.persistingConfirm = true
			nd.stable.Write(func() {
				nd.persistingConfirm = false
				if nd.proc.ConfirmEnabled() {
					nd.proc.Confirm()
				}
				nd.drain()
			})
		}
		if from, a, ok := nd.proc.BrcvEnabled(); ok {
			nd.proc.Brcv()
			nd.deliveries = append(nd.deliveries, Delivery{From: from, Value: a, Time: nd.sim.Now()})
			nd.fromOrigin[from]++
			if nd.log != nil {
				nd.log.Append(props.Event{
					T: nd.sim.Now(), Kind: props.TOBrcv, P: nd.id, From: from,
					Value: a, ValueSeq: nd.fromOrigin[from],
				})
			}
			progress = true
		}
		if !progress {
			return
		}
	}
}

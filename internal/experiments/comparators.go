package experiments

import (
	"fmt"
	"time"

	"repro/internal/failures"
	"repro/internal/net"
	"repro/internal/props"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/storage"
	"repro/internal/types"
	"repro/internal/vsimpl"
	"repro/internal/vstoto"
)

// vsWorld is what the stack's two comparators (E5's stable-storage
// baseline and E12's primary-partition model) run on: one simulator,
// failure oracle and δ-bounded network, a vsimpl node per processor of
// 0..n-1, and the client deliveries each processor has made.
type vsWorld struct {
	Sim        *sim.Sim
	Oracle     *failures.Oracle
	Procs      types.ProcSet
	Cfg        vsimpl.Config
	qs         types.Majorities
	vs         []*vsimpl.Node
	deliveries [][]stack.Delivery
}

// newVSWorld builds the world and starts its VS nodes. hooks(w, p) wires
// processor p's VS indications; it is called for every processor, in
// order, before any node starts. A non-nil log receives the VS trace.
func newVSWorld(seed int64, n int, delta time.Duration, log *props.Log,
	hooks func(w *vsWorld, p types.ProcID) vsimpl.Handlers) *vsWorld {
	s := sim.New(seed)
	oracle := failures.NewOracle(s.Now)
	nw := net.New(s, oracle, net.Config{Delta: delta})
	procs := types.RangeProcSet(n)
	w := &vsWorld{
		Sim: s, Oracle: oracle, Procs: procs,
		Cfg:        vsimpl.DefaultConfig(delta, n),
		qs:         types.Majorities{Universe: procs},
		vs:         make([]*vsimpl.Node, n),
		deliveries: make([][]stack.Delivery, n),
	}
	for _, p := range procs.Members() {
		w.vs[p] = vsimpl.NewNode(p, procs, procs, s, nw, oracle, w.Cfg, hooks(w, p))
		w.vs[p].Log = log
	}
	for _, p := range procs.Members() {
		w.vs[p].Start()
	}
	return w
}

// deliver records a client delivery of a (from origin from) at p.
func (w *vsWorld) deliver(p, from types.ProcID, a types.Value) {
	w.deliveries[p] = append(w.deliveries[p], stack.Delivery{From: from, Value: a, Time: w.Sim.Now()})
}

// Deliveries returns everything delivered at p, in order.
func (w *vsWorld) Deliveries(p types.ProcID) []stack.Delivery { return w.deliveries[p] }

// baselineCluster is the comparison point of the paper's introduction: a
// Keidar–Dolev-style total order protocol that writes to stable storage on
// the critical path. It runs the stack's VStoTO automaton over the same VS
// service, under the persistence discipline of [35, 36]: a client value is
// written to the local stable log before it is sent into the group, and
// every confirmed position is written before it is released to the client.
// E5 sets it beside the stack at each storage latency λ.
type baselineCluster struct {
	*vsWorld
	Log   *props.Log
	nodes []*baselineNode
}

type baselineNode struct {
	id                types.ProcID
	w                 *vsWorld
	proc              *vstoto.Proc
	log               *props.Log
	stable            *storage.Stable
	persistingConfirm bool

	bcastSeq int
	// fromOrigin counts the values delivered here per origin: a delivery's
	// count is its origin-local sequence number, the trace's ValueSeq.
	fromOrigin []int
}

// newBaseline builds and starts a baseline cluster of n processors whose
// stable-storage devices each take lat per write.
func newBaseline(seed int64, n int, delta, lat time.Duration) *baselineCluster {
	c := &baselineCluster{Log: &props.Log{}, nodes: make([]*baselineNode, n)}
	c.vsWorld = newVSWorld(seed, n, delta, c.Log, func(w *vsWorld, p types.ProcID) vsimpl.Handlers {
		nd := &baselineNode{
			id:         p,
			w:          w,
			proc:       vstoto.NewProc(p, w.qs, w.Procs),
			log:        c.Log,
			stable:     storage.New(w.Sim, lat),
			fromOrigin: make([]int, n),
		}
		c.nodes[p] = nd
		return vsimpl.Handlers{
			Newview: func(v types.View) { nd.proc.Newview(v); nd.drain() },
			Gprcv:   nd.onGprcv,
			Safe:    nd.onSafe,
		}
	})
	return c
}

// Bcast submits a client value at p: it is stable-logged before entering
// the protocol.
func (c *baselineCluster) Bcast(p types.ProcID, a types.Value) {
	nd := c.nodes[p]
	nd.bcastSeq++
	nd.log.Append(props.Event{T: c.Sim.Now(), Kind: props.TOBcast, P: p, Value: a, ValueSeq: nd.bcastSeq})
	nd.stable.Write(func() {
		nd.proc.Bcast(a)
		nd.drain()
	})
}

// StorageWrites returns the number of stable writes completed at p.
func (c *baselineCluster) StorageWrites(p types.ProcID) int { return c.nodes[p].stable.Writes() }

func (nd *baselineNode) onGprcv(from types.ProcID, payload any) {
	switch m := payload.(type) {
	case vstoto.LabeledValue:
		nd.proc.GprcvValue(m)
	case *vstoto.Summary:
		nd.proc.GprcvSummary(from, m)
	}
	nd.drain()
}

func (nd *baselineNode) onSafe(from types.ProcID, payload any) {
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
func (nd *baselineNode) drain() {
	if nd.w.Oracle.Proc(nd.id) == failures.Bad {
		return
	}
	vs := nd.w.vs[nd.id]
	for {
		progress := false
		if _, ok := nd.proc.LabelEnabled(); ok {
			nd.proc.Label()
			progress = true
		}
		if nd.proc.GpsndSummaryEnabled() {
			vs.Gpsnd(nd.proc.GpsndSummary())
			progress = true
		}
		if _, ok := nd.proc.GpsndValueEnabled(); ok {
			vs.Gpsnd(nd.proc.GpsndValue())
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
			nd.w.deliver(nd.id, from, a)
			nd.fromOrigin[from]++
			nd.log.Append(props.Event{
				T: nd.w.Sim.Now(), Kind: props.TOBrcv, P: nd.id, From: from,
				Value: a, ValueSeq: nd.fromOrigin[from],
			})
			progress = true
		}
		if !progress {
			return
		}
	}
}

// primaryCluster is E12's comparison point for the paper's central design
// choice: a primary-partition ordered broadcast in the style of the
// original Isis model, over the same VS service. A value rides VS as is
// and is delivered on its safe indication (so the per-view order is stable
// at every member), only while the local view is primary; there is no
// state exchange and no reconciliation when views change. Under
// partitions it therefore loses work: values submitted in minority views
// are never delivered, and processors away from the primary miss what it
// delivered meanwhile.
type primaryCluster struct {
	*vsWorld
}

// newPrimary builds and starts a primary-model cluster of n processors.
func newPrimary(seed int64, n int, delta time.Duration) *primaryCluster {
	views := make([]types.View, n)
	return &primaryCluster{newVSWorld(seed, n, delta, nil, func(w *vsWorld, p types.ProcID) vsimpl.Handlers {
		views[p] = types.InitialView(w.Procs)
		return vsimpl.Handlers{
			Newview: func(v types.View) { views[p] = v },
			Safe: func(from types.ProcID, payload any) {
				if w.qs.IsQuorumContained(views[p].Set) {
					w.deliver(p, from, payload.(types.Value))
				}
			},
		}
	})}
}

// Bcast submits a value at p. If p's view is (or becomes) non-primary
// before the value is safe, the value is lost: the model's defining
// weakness.
func (c *primaryCluster) Bcast(p types.ProcID, a types.Value) { c.vs[p].Gpsnd(a) }

// CheckNoDivergence checks the model's safety property on every pair of
// processors: the values both delivered appear in the same relative
// order. Deliveries happen only in primary views (any two of which
// intersect) on safe messages, so a processor that missed a primary view
// has a gap, never a reordering.
func (c *primaryCluster) CheckNoDivergence() error {
	type key struct {
		From  types.ProcID
		Value types.Value
	}
	for _, p := range c.Procs.Members() {
		for _, q := range c.Procs.Members() {
			if p >= q {
				continue
			}
			pos := make(map[key]int)
			for i, d := range c.deliveries[p] {
				pos[key{d.From, d.Value}] = i
			}
			last := -1
			for _, d := range c.deliveries[q] {
				if i, ok := pos[key{d.From, d.Value}]; ok {
					if i < last {
						return fmt.Errorf("primary: %v and %v disagree on the relative order around %s", p, q, d.Value)
					}
					last = i
				}
			}
		}
	}
	return nil
}

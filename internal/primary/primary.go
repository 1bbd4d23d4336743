// Package primary implements the comparison point for the paper's central
// design choice: a *primary-partition* ordered broadcast in the style of
// the original Isis model, built over the same VS service. Messages are
// delivered (on their safe indication, so the order is stable) only while
// the local view is primary; there is no state exchange and no
// reconciliation when views change.
//
// The contrast with VStoTO (experiment E12) is the paper's motivation for
// partitionable semantics made measurable: under partitions the primary
// model loses work — values submitted in minority views are never
// delivered anywhere, and processors that were away from the primary miss
// the messages delivered while they were gone — while VStoTO's recovery
// protocol delivers every submitted value to every processor once the
// network stabilizes.
package primary

import (
	"time"

	"repro/internal/failures"
	"repro/internal/net"
	"repro/internal/sim"
	"repro/internal/types"
	"repro/internal/vsimpl"
)

// Delivery is one ordered delivery to the client at a node.
type Delivery struct {
	From  types.ProcID
	Value types.Value
	Time  sim.Time
}

// Options configures NewCluster.
type Options struct {
	Seed  int64
	N     int
	Delta time.Duration
}

// Cluster is a primary-partition ordered-broadcast instance.
type Cluster struct {
	Sim    *sim.Sim
	Oracle *failures.Oracle
	Procs  types.ProcSet
	Cfg    vsimpl.Config
	nodes  map[types.ProcID]*node
	qs     types.QuorumSystem
}

type node struct {
	id         types.ProcID
	vs         *vsimpl.Node
	qs         types.QuorumSystem
	view       types.View
	hasView    bool
	deliveries []Delivery
}

// NewCluster builds and starts a primary-model cluster.
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
		Sim: s, Oracle: oracle, Procs: procs, Cfg: cfg,
		nodes: make(map[types.ProcID]*node, opts.N),
		qs:    qs,
	}
	for _, p := range procs.Members() {
		nd := &node{id: p, qs: qs, view: types.InitialView(procs), hasView: true}
		nd.vs = vsimpl.NewNode(p, procs, procs, s, nw, oracle, cfg, vsimpl.Handlers{
			Newview: func(v types.View) {
				nd.view = v
				nd.hasView = true
			},
			// Delivery happens on the safe indication: the per-view order
			// is then stable at every member, so primary-view deliveries
			// never diverge.
			Safe: func(from types.ProcID, payload any) {
				if !nd.primary() {
					return
				}
				nd.deliveries = append(nd.deliveries, Delivery{
					From: from, Value: payload.(types.Value), Time: s.Now(),
				})
			},
		})
		c.nodes[p] = nd
	}
	for _, p := range procs.Members() {
		c.nodes[p].vs.Start()
	}
	return c
}

func (nd *node) primary() bool {
	return nd.hasView && nd.qs.IsQuorumContained(nd.view.Set)
}

// Bcast submits a value at p. In the primary model the value simply rides
// VS; if p's view is (or becomes) non-primary before the value is safe,
// the value is lost — that is the model's defining weakness.
func (c *Cluster) Bcast(p types.ProcID, a types.Value) {
	c.nodes[p].vs.Gpsnd(a)
}

// Deliveries returns everything delivered at p, in order.
func (c *Cluster) Deliveries(p types.ProcID) []Delivery { return c.nodes[p].deliveries }

// CheckNoDivergence verifies the model's safety property: the delivery
// sequences of any two processors never contradict each other — for each
// pair, one of (a) one is a prefix of the other, or (b) they agree on the
// overlap of the views both participated in. Because deliveries happen
// only in primary views (any two of which intersect) on safe messages, the
// sequences of two processors that were in the same primary views agree;
// a processor that missed a primary view simply misses a gap.
//
// For the E12 comparison it is enough to check pairwise consistency of the
// common subsequence: the shared values appear in the same relative order.
func (c *Cluster) CheckNoDivergence() error {
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
			for i, d := range c.nodes[p].deliveries {
				pos[key{d.From, d.Value}] = i
			}
			last := -1
			for _, d := range c.nodes[q].deliveries {
				if i, ok := pos[key{d.From, d.Value}]; ok {
					if i < last {
						return errDivergence(p, q, d.Value)
					}
					last = i
				}
			}
		}
	}
	return nil
}

type divergenceError struct {
	p, q types.ProcID
	v    types.Value
}

func errDivergence(p, q types.ProcID, v types.Value) error {
	return divergenceError{p, q, v}
}

func (e divergenceError) Error() string {
	return "primary: " + e.p.String() + " and " + e.q.String() +
		" disagree on the relative order around " + string(e.v)
}

package rsm

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/types"
)

// AtomicChecker verifies linearizability of the atomic variant of the
// footnote-3 memory (every operation — including reads — routed through
// the total order). An execution is linearizable iff each operation can
// be assigned a single point between its invocation and response such
// that the points' order is a legal sequential history. Here the natural
// candidate point is the operation's position in the TO order; the checker
// verifies that this assignment respects real time: whenever op1's
// response precedes op2's invocation, op1 precedes op2 in the order.
// (Sequential legality of the order itself is what HistoryChecker and
// CheckCoherence establish; atomic read values are additionally checked to
// match a replay of the order prefix.)
type AtomicChecker struct {
	mem *Memory
	ops []*atomicOp
}

type atomicOp struct {
	p         types.ProcID
	encoded   types.Value
	kind      string
	key       string
	observed  string
	invoked   sim.Time
	responded sim.Time
	done      bool
}

// NewAtomicChecker wraps a memory for checked atomic operation.
func NewAtomicChecker(m *Memory) *AtomicChecker {
	return &AtomicChecker{mem: m}
}

func (c *AtomicChecker) now() sim.Time { return c.mem.cluster.Sim.Now() }

// Write submits a checked write at p; false means the stack rejected it
// (see Memory.Write) and the checker holds no record of it.
func (c *AtomicChecker) Write(p types.ProcID, key, val string) bool {
	return c.submit(p, Op{Kind: "w", Key: key, Val: val})
}

// Read submits a checked atomic read at p; false as for Write.
func (c *AtomicChecker) Read(p types.ProcID, key string) bool {
	return c.submit(p, Op{Kind: "r", Key: key})
}

func (c *AtomicChecker) submit(p types.ProcID, op Op) bool {
	rec := &atomicOp{p: p, kind: op.Kind, key: op.Key, invoked: c.now()}
	var ok bool
	rec.encoded, ok = c.mem.submit(p, op, func(observed string) {
		rec.observed = observed
		rec.responded = c.now()
		rec.done = true
	})
	if ok {
		c.ops = append(c.ops, rec)
	}
	return ok
}

// Completed returns how many checked operations have responded.
func (c *AtomicChecker) Completed() int {
	n := 0
	for _, op := range c.ops {
		if op.done {
			n++
		}
	}
	return n
}

// Check verifies linearizability of the completed operations.
func (c *AtomicChecker) Check() error {
	if err := c.mem.CheckCoherence(); err != nil {
		return err
	}
	// Canonical order positions by (origin, encoded value).
	type ident struct {
		P types.ProcID
		V types.Value
	}
	pos := make(map[ident]int)
	var longest []struct {
		id ident
	}
	for _, p := range c.mem.cluster.Procs.Members() {
		ds := c.mem.cluster.Deliveries(p)
		if len(ds) > len(longest) {
			longest = longest[:0]
			for _, d := range ds {
				longest = append(longest, struct{ id ident }{ident{d.From, d.Value}})
			}
		}
	}
	for i, e := range longest {
		pos[e.id] = i + 1
	}
	// Replay the order to validate atomic read values.
	state := make(map[string]string)
	for _, e := range longest {
		op, err := DecodeOp(e.id.V)
		if err != nil {
			return err
		}
		if op.Kind == "w" {
			state[op.Key] = op.Val
		}
		for _, rec := range c.ops {
			if rec.done && rec.p == e.id.P && rec.encoded == e.id.V && rec.kind == "r" {
				if rec.observed != state[op.Key] {
					return fmt.Errorf("rsm: atomic read(%q) at %v observed %q, order says %q",
						rec.key, rec.p, rec.observed, state[op.Key])
				}
			}
		}
	}
	// Real-time order: response(op1) < invoke(op2) ⇒ pos(op1) < pos(op2).
	for _, op1 := range c.ops {
		if !op1.done {
			continue
		}
		p1, ok1 := pos[ident{op1.p, op1.encoded}]
		if !ok1 {
			return fmt.Errorf("rsm: completed op at %v missing from the order", op1.p)
		}
		for _, op2 := range c.ops {
			if op1 == op2 {
				continue
			}
			p2, ok2 := pos[ident{op2.p, op2.encoded}]
			if !ok2 {
				continue // op2 not yet ordered; real-time pairs need both
			}
			if op1.responded < op2.invoked && p1 >= p2 {
				return fmt.Errorf(
					"rsm: linearizability violated: op@%v responded %v before op@%v invoked %v, but order positions %d ≥ %d",
					op1.p, op1.responded, op2.p, op2.invoked, p1, p2)
			}
		}
	}
	return nil
}

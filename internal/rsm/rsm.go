// Package rsm implements the application of the paper's footnote 3: a
// sequentially consistent read/write shared memory built on the totally
// ordered broadcast service ("Replicated State Machine" approach, Lamport /
// Schneider). Each processor maintains a full replica; a read returns the
// local copy immediately; an update is broadcast through TO and applied at
// every replica (including the submitter) when delivered, at which point
// the submitting processor acknowledges its client.
//
// The package also provides the atomic variant mentioned in the footnote:
// sending reads through the broadcast service as well yields an atomic
// (linearizable) memory.
//
// Apply is commutativity-aware: an application-declared conflict relation
// (ConflictFunc, parallel.go) lets each replica cut a delivered batch into
// antichains of commuting operations and fan the per-op work across worker
// goroutines, while effects and client acks are installed serially in
// delivery order — replica state stays byte-identical to serial apply at
// every worker count.
package rsm

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/types"
)

// Memory is a replicated key-value memory over a TO cluster. All methods
// take the processor at which the client operates.
type Memory struct {
	cluster  *stack.Cluster
	replicas map[types.ProcID]map[string]string
	applied  map[types.ProcID]int // ops applied per replica
	nonces   map[types.ProcID]int
	waiters  map[opKey]func(val string)
	errs     map[types.ProcID]error // sticky per-replica apply halt (malformed op)

	conflict ConflictFunc
	apply    ApplyFunc
	workers  int
	maxSpan  int
	pumping  bool // reentrancy guard: waiter callbacks may call Read/Pump
	met      memMetrics

	// Test-only planner/executor sabotage; see applyBatch.
	forceCommute    bool
	permuteSegments bool
}

type opKey struct {
	P     types.ProcID
	Nonce int
}

// New attaches a replicated memory to a TO cluster. Deliveries are applied
// to the replicas eagerly, batch by batch as the stack releases them, via a
// cluster batch observer; Pump also applies any deliveries that occurred
// before New was called.
func New(c *stack.Cluster) *Memory {
	m := &Memory{
		cluster:  c,
		replicas: make(map[types.ProcID]map[string]string),
		applied:  make(map[types.ProcID]int),
		nonces:   make(map[types.ProcID]int),
		waiters:  make(map[opKey]func(string)),
		errs:     make(map[types.ProcID]error),
		conflict: DefaultConflict,
		apply:    func(op Op, _ string) string { return op.Val },
		workers:  1,
		maxSpan:  defaultMaxSpan,
	}
	for _, p := range c.Procs.Members() {
		m.replicas[p] = make(map[string]string)
	}
	m.bindMetrics(c.Obs)
	c.OnDeliverBatch(func(p types.ProcID, _ []stack.Delivery) { m.pumpProc(p) })
	return m
}

// submit gives op the next nonce at p and broadcasts it, with ack (if
// non-nil) to run on the value the op observes once p's replica applies it.
// It returns the encoded op and whether the stack accepted it: a submission
// the stack rejects (stack.Node.Bcast — backlog at MaxPendingBcasts, or
// an amnesiac origin) will never be delivered, so its waiter is dropped and
// the client told at once.
func (m *Memory) submit(p types.ProcID, op Op, ack func(val string)) (types.Value, bool) {
	m.nonces[p]++
	op.Nonce = m.nonces[p]
	key := opKey{p, op.Nonce}
	if ack != nil {
		m.waiters[key] = ack
	}
	v := op.Encode()
	ok := m.cluster.Node(p).Bcast(v)
	if !ok {
		delete(m.waiters, key)
	}
	return v, ok
}

// Write submits an update at processor p and reports whether the stack
// accepted it. onApplied, if non-nil, runs when the update has been applied
// at p's replica (the client's ack); it never runs for a rejected write.
func (m *Memory) Write(p types.ProcID, key, val string, onApplied func()) bool {
	var ack func(string)
	if onApplied != nil {
		ack = func(string) { onApplied() }
	}
	_, ok := m.submit(p, Op{Kind: "w", Key: key, Val: val}, ack)
	return ok
}

// Read returns the local replica's value immediately (the sequentially
// consistent read of footnote 3).
func (m *Memory) Read(p types.ProcID, key string) string {
	m.Pump()
	return m.replicas[p][key]
}

// ReadAtomic submits the read through the broadcast service and reports
// whether the stack accepted it; onValue runs with the value the read
// observes in the total order (the atomic variant), never for a rejected
// read.
func (m *Memory) ReadAtomic(p types.ProcID, key string, onValue func(val string)) bool {
	_, ok := m.submit(p, Op{Kind: "r", Key: key}, onValue)
	return ok
}

// Pump applies every not-yet-applied delivery to the replicas. With the
// batch observer installed by New this is normally a no-op; it remains
// useful when a Memory is attached to a cluster that already delivered.
// It returns the first replica's sticky apply error, if any (see Err).
func (m *Memory) Pump() error {
	var first error
	for _, p := range m.cluster.Procs.Members() {
		if err := m.pumpProc(p); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Err returns p's sticky apply error: non-nil once a malformed operation
// halted the replica. Every replica halts at the same position in the TO
// order (the prefix before the bad op is applied everywhere), so a halt
// never diverges replica contents.
func (m *Memory) Err(p types.ProcID) error { return m.errs[p] }

// pumpProc applies p's backlog of deliveries as one batch. Decoding stops
// at the first malformed op: the good prefix is applied (identically at
// every replica — the TO order places the bad op at the same index
// everywhere), then the replica halts with a sticky error.
func (m *Memory) pumpProc(p types.ProcID) error {
	if err := m.errs[p]; err != nil {
		return err
	}
	if m.pumping {
		// A waiter callback re-entered via Read/Pump mid-install; the
		// outer applyBatch owns the backlog.
		return nil
	}
	ds := m.cluster.Deliveries(p)
	lo := m.applied[p]
	if lo >= len(ds) {
		return nil
	}
	batch := ds[lo:]
	ops := make([]Op, 0, len(batch))
	var decErr error
	for i, d := range batch {
		op, err := DecodeOp(d.Value)
		if err == nil && op.Kind != "w" && op.Kind != "r" {
			err = fmt.Errorf("rsm: unknown op kind %q", op.Kind)
		}
		if err != nil {
			decErr = fmt.Errorf("rsm: replica %v halted at delivery %d: %w", p, lo+i, err)
			break
		}
		ops = append(ops, op)
	}
	if len(ops) > 0 {
		m.pumping = true
		func() {
			defer func() { m.pumping = false }()
			m.applyBatch(p, batch[:len(ops)], ops)
		}()
	}
	m.applied[p] += len(ops)
	if decErr != nil {
		m.errs[p] = decErr
	}
	return decErr
}

// Replica returns a copy of p's current replica contents.
func (m *Memory) Replica(p types.ProcID) map[string]string {
	m.Pump()
	out := make(map[string]string, len(m.replicas[p]))
	for k, v := range m.replicas[p] {
		out[k] = v
	}
	return out
}

// AppliedCount returns the number of operations applied at p's replica.
func (m *Memory) AppliedCount(p types.ProcID) int {
	m.Pump()
	return m.applied[p]
}

// CheckCoherence verifies that all replicas have applied a common prefix
// of one operation sequence (the defining property the TO order provides).
// It returns an error naming the first divergence.
func (m *Memory) CheckCoherence() error {
	m.Pump()
	procs := m.cluster.Procs.Members()
	var longest []stack.Delivery
	for _, p := range procs {
		if ds := m.cluster.Deliveries(p); len(ds) > len(longest) {
			longest = ds
		}
	}
	for _, p := range procs {
		ds := m.cluster.Deliveries(p)
		for i := range ds {
			if ds[i].Value != longest[i].Value || ds[i].From != longest[i].From {
				return fmt.Errorf("rsm: replica %v diverges at op %d: %v vs %v", p, i, ds[i], longest[i])
			}
		}
	}
	return nil
}

// WaitSettle is a convenience for tests: runs the simulator for d and
// pumps.
func (m *Memory) WaitSettle(d sim.Time) error {
	if err := m.cluster.Sim.Run(m.cluster.Sim.Now() + d); err != nil {
		return err
	}
	return m.Pump()
}

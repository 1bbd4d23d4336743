// Package pgcs is the public face of this repository: a partitionable
// view-synchronous group communication service (VS), a totally ordered
// broadcast service built on it (TO, via the paper's VStoTO algorithm),
// and a sequentially consistent replicated memory built on that —
// a complete, executable reproduction of Fekete, Lynch and Shvartsman,
// "Specifying and Using a Partitionable Group Communication Service"
// (PODC 1997).
//
// Two ways to run the service:
//
//   - Simulated (NewSimCluster): the whole system runs on a deterministic
//     discrete-event simulator with an explicit failure oracle. This is
//     what the tests, benchmarks and experiments use; runs are exactly
//     reproducible from the seed.
//
//   - Live (StartLiveCluster): the same protocol paced against the wall
//     clock, with channel-based delivery streams — the shape an
//     application embedding the service would use.
//
// The formal artifacts (the TO-machine and VS-machine specification
// automata, the trace checkers, the Section 6 invariants and forward
// simulation) live in the internal packages and are exercised by the test
// suite; see DESIGN.md for the map.
package pgcs

import (
	"time"

	"repro/internal/props"
	"repro/internal/rsm"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/types"
)

// Re-exported ground types, so client code needs only this package.
type (
	// ProcID identifies a processor (the paper's set P).
	ProcID = types.ProcID
	// Value is a client data value (the paper's set A).
	Value = types.Value
	// View is a group view: identifier plus membership.
	View = types.View
	// ViewID is a view identifier (the paper's totally ordered set G).
	ViewID = types.ViewID
	// ProcSet is an immutable set of processors.
	ProcSet = types.ProcSet
	// QuorumSystem decides which views are primary.
	QuorumSystem = types.QuorumSystem
	// Delivery is one totally ordered delivery.
	Delivery = stack.Delivery
	// Time is a virtual-time instant.
	Time = sim.Time
)

// NewProcSet builds a processor set.
func NewProcSet(ids ...ProcID) ProcSet { return types.NewProcSet(ids...) }

// Majorities returns the default quorum system over an n-processor
// universe.
func Majorities(n int) QuorumSystem {
	return types.Majorities{Universe: types.RangeProcSet(n)}
}

// Config configures a cluster.
type Config struct {
	// N is the number of processors (identifiers 0..N-1).
	N int
	// Seed drives all nondeterminism; equal seeds give equal runs.
	Seed int64
	// Delta is the good-channel delivery bound δ (default 1ms).
	Delta time.Duration
	// InitialMembers is how many processors start in the initial view
	// (default: all).
	InitialMembers int
	// Quorums overrides the majority quorum system.
	Quorums QuorumSystem
}

// SimCluster is a deterministic, simulator-backed TO service instance with
// failure injection.
type SimCluster struct {
	c *stack.Cluster
}

// NewSimCluster builds a simulated cluster.
func NewSimCluster(cfg Config) *SimCluster {
	return &SimCluster{c: stack.NewCluster(stack.Options{
		Seed:    cfg.Seed,
		N:       cfg.N,
		P0Size:  cfg.InitialMembers,
		Delta:   cfg.Delta,
		Quorums: cfg.Quorums,
		Log:     &props.Log{}, // read by EventLog
	})}
}

// Broadcast submits a value at processor p; it will be delivered to every
// connected processor in one common total order. It reports false — and
// submits nothing — when the processor refuses the value (a processor
// wiped by an amnesia crash hosts no client until it restarts).
func (s *SimCluster) Broadcast(p ProcID, a Value) bool { return s.c.Bcast(p, a) }

// Deliveries returns everything delivered at p so far, in order.
func (s *SimCluster) Deliveries(p ProcID) []Delivery { return s.c.Deliveries(p) }

// Run advances the simulation by d of virtual time.
func (s *SimCluster) Run(d time.Duration) error { return s.c.Sim.RunFor(d) }

// Now returns the current virtual time.
func (s *SimCluster) Now() Time { return s.c.Sim.Now() }

// Partition splits the universe into isolated components.
func (s *SimCluster) Partition(components ...ProcSet) {
	s.c.Oracle.Partition(s.c.Procs, components...)
}

// Heal reconnects everything.
func (s *SimCluster) Heal() { s.c.Oracle.Heal(s.c.Procs) }

// CurrentView returns p's current view (ok=false before p joins any view).
func (s *SimCluster) CurrentView(p ProcID) (View, bool) {
	return s.c.Node(p).VS().View()
}

// Procs returns the processor universe.
func (s *SimCluster) Procs() ProcSet { return s.c.Procs }

// EventLog exposes the timed external trace of the run, consumable by the
// property evaluators in internal/props and the vscheck tool.
func (s *SimCluster) EventLog() *props.Log { return s.c.Log }

// Stack exposes the underlying cluster for advanced use (experiments).
func (s *SimCluster) Stack() *stack.Cluster { return s.c }

// Op is one memory operation as seen by a conflict relation: Kind ("w" or
// "r"), Key, Val, and the submitter-local Nonce.
type Op = rsm.Op

// ConflictFunc declares which memory operations do not commute; see
// DefaultConflict and AlwaysConflict, and DESIGN.md §15 for the soundness
// contract.
type ConflictFunc = rsm.ConflictFunc

// DefaultConflict is the standard relation for the key-value memory: reads
// commute with reads, operations on different keys commute, same-key pairs
// involving a write conflict.
func DefaultConflict(a, b Op) bool { return rsm.DefaultConflict(a, b) }

// AlwaysConflict declares every pair conflicting — the conservative,
// strictly serial legacy mode.
func AlwaysConflict(a, b Op) bool { return rsm.AlwaysConflict(a, b) }

// MemoryOptions tunes the replicated memory's apply stage. The zero value
// is the serial reference configuration.
type MemoryOptions struct {
	// Conflict is the commutativity relation the batch planner consults
	// (nil: DefaultConflict). It must be sound — if Conflict(a,b) and
	// Conflict(b,a) are both false, applying a and b in either order must
	// yield identical state and observations — and identical at every
	// replica.
	Conflict ConflictFunc
	// Workers is the apply worker-goroutine count: 1 or 0 applies serially;
	// n > 1 fans each antichain of commuting operations across n
	// goroutines; negative means all cores. Replica state and ack order
	// are byte-identical at every setting.
	Workers int
}

// Memory attaches a sequentially consistent replicated key-value memory
// (the paper's footnote 3 application) to the cluster.
func (s *SimCluster) Memory() *ReplicatedMemory {
	return &ReplicatedMemory{m: rsm.New(s.c)}
}

// MemoryWithOptions is Memory with apply-stage tuning.
func (s *SimCluster) MemoryWithOptions(opts MemoryOptions) *ReplicatedMemory {
	m := rsm.New(s.c)
	m.SetConflict(opts.Conflict)
	if opts.Workers != 0 {
		m.SetWorkers(opts.Workers)
	}
	return &ReplicatedMemory{m: m}
}

// ReplicatedMemory is a sequentially consistent replicated key-value store.
type ReplicatedMemory struct {
	m *rsm.Memory
}

// Write submits an update at p; onApplied (optional) runs when the update
// reaches p's replica. It returns false, and onApplied never runs, when the
// stack does not accept the submission (p is down with its state lost).
func (r *ReplicatedMemory) Write(p ProcID, key, val string, onApplied func()) bool {
	return r.m.Write(p, key, val, onApplied)
}

// Read returns p's local replica value (sequentially consistent).
func (r *ReplicatedMemory) Read(p ProcID, key string) string { return r.m.Read(p, key) }

// ReadAtomic routes the read through the total order (atomic semantics);
// false as for Write.
func (r *ReplicatedMemory) ReadAtomic(p ProcID, key string, onValue func(string)) bool {
	return r.m.ReadAtomic(p, key, onValue)
}

// Replica returns a copy of p's current replica contents.
func (r *ReplicatedMemory) Replica(p ProcID) map[string]string { return r.m.Replica(p) }

// CheckCoherence verifies all replicas applied a common operation prefix.
func (r *ReplicatedMemory) CheckCoherence() error { return r.m.CheckCoherence() }

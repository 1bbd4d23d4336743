package main

import (
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"repro/internal/stack"
	"repro/internal/types"
)

// Task is a unit of work identified by name.
type Task struct {
	Name string
	// Work is the simulated processing time.
	Work time.Duration
}

// Status describes a task's lifecycle at one node.
type Status int

// Task statuses.
const (
	Pending Status = iota
	Running
	Done
)

// Balancer is the view-aware work partitioning of [24] (Dolev, Segala,
// Shvartsman, "Dynamic Load Balancing with Group Communication", built on
// this same VS specification). Tasks are announced through the totally
// ordered broadcast service, so every node agrees on the task list; each
// node claims the tasks whose hash ranks to its position in its current
// view, so responsibility re-partitions on every membership change, with
// no coordinator.
//
// Completions are also announced through TO. During a partition both sides
// may work on (and the non-primary side locally finish) the same task;
// because completions flow through the total order, every node converges
// on the same first-completer for every task, and duplicate completions
// are counted, not double-applied: the at-least-once / agreed-winner
// semantics the load-balancing paper provides.
//
// One Balancer manages all nodes of a simulated cluster; per-node state
// is kept separately inside it.
type Balancer struct {
	cluster *stack.Cluster
	procs   []types.ProcID

	// Shared-by-construction state (identical at all nodes once the TO
	// stream is applied; tracked per node).
	perNode map[types.ProcID]*nodeState

	// Executed counts actual task executions (including duplicates across
	// partition sides).
	Executed map[string]int
	// Winner records the first completer per task in the total order.
	Winner map[string]types.ProcID
}

type nodeState struct {
	id      types.ProcID
	tasks   map[string]Task
	status  map[string]Status
	running map[string]bool
	// announced marks tasks this node has finished and broadcast; the
	// completion may still be in flight (or awaiting a primary view), so
	// the task is not re-run here even though its status is not yet Done.
	announced map[string]bool
}

// newBalancer attaches a balancer to a cluster. Tasks and completions ride the
// cluster's TO service; processing is driven by Pump (typically from a
// periodic simulator event).
func newBalancer(c *stack.Cluster) *Balancer {
	b := &Balancer{
		cluster:  c,
		procs:    c.Procs.Members(),
		perNode:  make(map[types.ProcID]*nodeState),
		Executed: make(map[string]int),
		Winner:   make(map[string]types.ProcID),
	}
	for _, p := range b.procs {
		b.perNode[p] = &nodeState{
			id:        p,
			tasks:     make(map[string]Task),
			status:    make(map[string]Status),
			running:   make(map[string]bool),
			announced: make(map[string]bool),
		}
	}
	c.OnDeliver(b.onDeliver)
	return b
}

// Submit announces a task at node p. Duration is encoded with the task so
// all nodes simulate the same work.
func (b *Balancer) Submit(p types.ProcID, task Task) {
	b.cluster.Bcast(p, types.Value(fmt.Sprintf("task|%d|%s", task.Work.Nanoseconds(), task.Name)))
}

func (b *Balancer) onDeliver(p types.ProcID, d stack.Delivery) {
	ns := b.perNode[p]
	s := string(d.Value)
	switch {
	case strings.HasPrefix(s, "task|"):
		rest := strings.SplitN(s[len("task|"):], "|", 2)
		if len(rest) != 2 {
			return
		}
		var workNs int64
		fmt.Sscanf(rest[0], "%d", &workNs)
		t := Task{Name: rest[1], Work: time.Duration(workNs)}
		ns.tasks[t.Name] = t
		if ns.status[t.Name] == Pending && !ns.running[t.Name] {
			b.schedule(ns)
		}
	case strings.HasPrefix(s, "done|"):
		rest := strings.SplitN(s[len("done|"):], "|", 2)
		if len(rest) != 2 {
			return
		}
		name := rest[1]
		ns.status[name] = Done
		// Every node sees the same total order, so the first completion
		// any node sights for a task is the order's first completion —
		// recording it once is globally consistent.
		if _, ok := b.Winner[name]; !ok {
			var owner int
			fmt.Sscanf(rest[0], "%d", &owner)
			b.Winner[name] = types.ProcID(owner)
		}
	}
}

// rank returns p's index within its current view, and the view size;
// ok=false when p has no view.
func (b *Balancer) rank(p types.ProcID) (int, int, bool) {
	v, ok := b.cluster.Node(p).VS().View()
	if !ok {
		return 0, 0, false
	}
	for i, m := range v.Set.Members() {
		if m == p {
			return i, v.Set.Size(), true
		}
	}
	return 0, 0, false
}

// owns reports whether p is responsible for the task under its current
// view: hash(task) mod |view| equals p's rank.
func (b *Balancer) owns(p types.ProcID, name string) bool {
	r, n, ok := b.rank(p)
	if !ok || n == 0 {
		return false
	}
	h := fnv.New32a()
	h.Write([]byte(name))
	return int(h.Sum32())%n == r
}

// schedule starts (as simulator events) every pending task the node owns.
// Ownership is re-evaluated at completion time relative to the THEN
// current view, so responsibility follows membership changes.
func (b *Balancer) schedule(ns *nodeState) {
	for name, task := range ns.tasks {
		if ns.status[name] != Pending || ns.running[name] || ns.announced[name] || !b.owns(ns.id, name) {
			continue
		}
		ns.running[name] = true
		name, task := name, task
		b.cluster.Sim.After(task.Work, func() {
			ns.running[name] = false
			if ns.status[name] == Done {
				return // someone else finished while we worked
			}
			if !b.owns(ns.id, name) {
				return // view changed; no longer ours
			}
			b.Executed[name]++
			ns.announced[name] = true
			// Announce completion through the total order. Delivery (which
			// requires a primary view) marks it Done everywhere.
			b.cluster.Bcast(ns.id, types.Value(fmt.Sprintf("done|%d|%s", int(ns.id), name)))
		})
	}
}

// Pump re-evaluates ownership at every node (call after view changes or
// periodically).
func (b *Balancer) Pump() {
	for _, p := range b.procs {
		b.schedule(b.perNode[p])
	}
}

// DoneCount returns how many tasks node p has seen completed.
func (b *Balancer) DoneCount(p types.ProcID) int {
	n := 0
	for _, st := range b.perNode[p].status {
		if st == Done {
			n++
		}
	}
	return n
}

// AllDone reports whether every submitted task is Done at every node.
func (b *Balancer) AllDone() bool {
	for _, p := range b.procs {
		ns := b.perNode[p]
		for name := range ns.tasks {
			if ns.status[name] != Done {
				return false
			}
		}
	}
	return true
}

// Package runtime drives the simulated TO stack in real time, so that
// interactive programs (the examples, the tosim command) can use the
// service the way an application would: goroutines submit values and
// consume ordered deliveries from channels, while a pacer goroutine
// advances the discrete-event simulator in step with the wall clock.
//
// Keeping the protocol itself on the deterministic simulator — rather than
// reimplementing it on raw goroutines — preserves the property that every
// run is also a checkable execution: the runtime exposes the same timed
// event log the experiment harness consumes.
package runtime

import (
	"sync"
	"time"

	"repro/internal/failures"
	"repro/internal/net"
	"repro/internal/props"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/types"
)

// Delivery is one ordered delivery surfaced to a subscriber.
type Delivery struct {
	Node  types.ProcID // where it was delivered
	From  types.ProcID // origin of the value
	Value types.Value
	At    sim.Time // virtual time of delivery
}

// Runtime runs a TO cluster in real time.
type Runtime struct {
	mu      sync.Mutex
	cluster *stack.Cluster
	seen    map[types.ProcID]int
	subs    []chan Delivery

	speed    float64 // virtual time advanced per wall second, 1.0 = real time
	tick     time.Duration
	stop     chan struct{}
	stopOnce sync.Once
	stopWG   sync.WaitGroup
}

// Options configures Start.
type Options struct {
	Cluster stack.Options
	// Speed is the virtual-per-wall time ratio (default 1.0). 1000 runs a
	// millisecond-scale protocol visibly fast.
	Speed float64
	// Tick is the pacer granularity (default 5ms wall time).
	Tick time.Duration
}

// Start builds the cluster and launches the pacer goroutine. Call Stop to
// shut it down.
func Start(opts Options) *Runtime {
	if opts.Speed <= 0 {
		opts.Speed = 1
	}
	if opts.Tick <= 0 {
		opts.Tick = 5 * time.Millisecond
	}
	if opts.Cluster.Log == nil {
		opts.Cluster.Log = &props.Log{} // read by Log
	}
	r := &Runtime{
		cluster: stack.NewCluster(opts.Cluster),
		seen:    make(map[types.ProcID]int),
		speed:   opts.Speed,
		tick:    opts.Tick,
		stop:    make(chan struct{}),
	}
	r.stopWG.Add(1)
	go r.pace()
	return r
}

func (r *Runtime) pace() {
	defer r.stopWG.Done()
	ticker := time.NewTicker(r.tick)
	defer ticker.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-ticker.C:
			r.mu.Lock()
			step := time.Duration(float64(r.tick) * r.speed)
			if err := r.cluster.Sim.RunFor(step); err != nil {
				r.mu.Unlock()
				return
			}
			r.fanOutLocked()
			r.mu.Unlock()
		}
	}
}

// fanOutLocked pushes new deliveries to subscribers; r.mu held.
func (r *Runtime) fanOutLocked() {
	for _, p := range r.cluster.Procs.Members() {
		ds := r.cluster.Deliveries(p)
		for ; r.seen[p] < len(ds); r.seen[p]++ {
			d := ds[r.seen[p]]
			out := Delivery{Node: p, From: d.From, Value: d.Value, At: d.Time}
			for _, ch := range r.subs {
				select {
				case ch <- out:
				default: // slow subscriber: drop rather than stall the pacer
				}
			}
		}
	}
}

// Stop halts the pacer and closes subscriber channels. It is idempotent
// and safe to call concurrently: every call blocks until the shutdown is
// complete.
func (r *Runtime) Stop() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.stopWG.Wait()
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ch := range r.subs {
		close(ch)
	}
	r.subs = nil
}

// Bcast submits a value at processor p and reports whether the node
// accepted it (stack.Node.Bcast).
func (r *Runtime) Bcast(p types.ProcID, a types.Value) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cluster.Bcast(p, a)
}

// Subscribe returns a channel carrying every delivery at every node from
// now on. The channel is buffered; a subscriber that falls far behind
// misses deliveries rather than stalling the runtime.
func (r *Runtime) Subscribe() <-chan Delivery {
	r.mu.Lock()
	defer r.mu.Unlock()
	ch := make(chan Delivery, 1024)
	r.subs = append(r.subs, ch)
	return ch
}

// Partition splits the universe into components (see failures.Oracle).
func (r *Runtime) Partition(components ...types.ProcSet) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cluster.Oracle.Partition(r.cluster.Procs, components...)
}

// Heal restores every processor and channel to good.
func (r *Runtime) Heal() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cluster.Oracle.Heal(r.cluster.Procs)
}

// Crash stops processor p (it preserves state and can be Healed later).
func (r *Runtime) Crash(p types.ProcID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cluster.Oracle.SetProc(p, failures.Bad)
	for _, q := range r.cluster.Procs.Members() {
		if q != p {
			r.cluster.Oracle.SetChannel(p, q, failures.Bad)
			r.cluster.Oracle.SetChannel(q, p, failures.Bad)
		}
	}
}

// Views returns each processor's current view id string, for display.
func (r *Runtime) Views() map[types.ProcID]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[types.ProcID]string, r.cluster.Procs.Size())
	for _, p := range r.cluster.Procs.Members() {
		v, ok := r.cluster.Node(p).VS().View()
		if !ok {
			out[p] = "⊥"
		} else {
			out[p] = v.String()
		}
	}
	return out
}

// Deliveries returns a snapshot of everything delivered at p.
func (r *Runtime) Deliveries(p types.ProcID) []stack.Delivery {
	r.mu.Lock()
	defer r.mu.Unlock()
	ds := r.cluster.Deliveries(p)
	return append([]stack.Delivery(nil), ds...)
}

// Log returns a snapshot copy of the timed event log.
func (r *Runtime) Log() *props.Log {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := &props.Log{Initial: r.cluster.Log.Initial}
	out.Events = append(out.Events, r.cluster.Log.Events...)
	return out
}

// NetStats returns a snapshot of the network counters. Unlike the other
// accessors it deliberately skips r.mu: the counters are atomics (see
// internal/net), so reading them while the pacer advances the simulator is
// exactly the concurrent pattern they exist to make safe — the regression
// test runs this under -race against a live pacer.
func (r *Runtime) NetStats() net.Stats {
	return r.cluster.Net.Snapshot()
}

// Now returns the current virtual time.
func (r *Runtime) Now() sim.Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cluster.Sim.Now()
}

// Procs returns the processor universe.
func (r *Runtime) Procs() types.ProcSet { return r.cluster.Procs }

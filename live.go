package pgcs

import (
	"sync"
	"time"

	"repro/internal/failures"
	"repro/internal/net"
	"repro/internal/props"
	"repro/internal/stack"
)

// LiveOptions configures StartLiveCluster.
type LiveOptions struct {
	Config Config
	// Speed is virtual time advanced per wall time (default 1.0).
	Speed float64
}

// LiveDelivery is one ordered delivery surfaced to a subscriber.
type LiveDelivery struct {
	Node  ProcID // where it was delivered
	From  ProcID // origin of the value
	Value Value
	At    Time // virtual time of delivery
}

// LiveCluster is the wall-clock-paced service: the simulated stack, with
// a pacer goroutine advancing the simulator in step with the wall clock,
// so goroutines submit values and consume ordered deliveries from channels
// the way an application would. The protocol stays on the deterministic
// simulator, so every run is also a checkable execution: Log returns the
// same timed event log the experiment harness consumes.
type LiveCluster struct {
	mu      sync.Mutex
	cluster *stack.Cluster
	seen    map[ProcID]int
	subs    []chan LiveDelivery

	speed    float64 // virtual time advanced per wall second, 1.0 = real time
	tick     time.Duration
	stop     chan struct{}
	stopOnce sync.Once
	stopWG   sync.WaitGroup
}

// StartLiveCluster launches a live cluster; call Stop when done.
func StartLiveCluster(opts LiveOptions) *LiveCluster {
	return startLive(stack.Options{
		Seed:    opts.Config.Seed,
		N:       opts.Config.N,
		P0Size:  opts.Config.InitialMembers,
		Delta:   opts.Config.Delta,
		Quorums: opts.Config.Quorums,
	}, opts.Speed, 5*time.Millisecond)
}

// startLive builds the cluster and launches the pacer goroutine, which
// advances tick·speed of virtual time every tick of wall time.
func startLive(opts stack.Options, speed float64, tick time.Duration) *LiveCluster {
	if speed <= 0 {
		speed = 1
	}
	opts.Log = &props.Log{} // read by Log
	r := &LiveCluster{
		cluster: stack.NewCluster(opts),
		seen:    make(map[ProcID]int),
		speed:   speed,
		tick:    tick,
		stop:    make(chan struct{}),
	}
	r.stopWG.Add(1)
	go r.pace()
	return r
}

func (r *LiveCluster) pace() {
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
func (r *LiveCluster) fanOutLocked() {
	for _, p := range r.cluster.Procs.Members() {
		ds := r.cluster.Deliveries(p)
		for ; r.seen[p] < len(ds); r.seen[p]++ {
			d := ds[r.seen[p]]
			out := LiveDelivery{Node: p, From: d.From, Value: d.Value, At: d.Time}
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
func (r *LiveCluster) Stop() {
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
func (r *LiveCluster) Bcast(p ProcID, a Value) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cluster.Bcast(p, a)
}

// Subscribe returns a channel carrying every delivery at every node from
// now on. The channel is buffered; a subscriber that falls far behind
// misses deliveries rather than stalling the pacer.
func (r *LiveCluster) Subscribe() <-chan LiveDelivery {
	r.mu.Lock()
	defer r.mu.Unlock()
	ch := make(chan LiveDelivery, 1024)
	r.subs = append(r.subs, ch)
	return ch
}

// Partition splits the universe into components (see failures.Oracle).
func (r *LiveCluster) Partition(components ...ProcSet) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cluster.Oracle.Partition(r.cluster.Procs, components...)
}

// Heal restores every processor and channel to good.
func (r *LiveCluster) Heal() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cluster.Oracle.Heal(r.cluster.Procs)
}

// Crash stops processor p (it preserves state and can be Healed later).
func (r *LiveCluster) Crash(p ProcID) {
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
func (r *LiveCluster) Views() map[ProcID]string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[ProcID]string, r.cluster.Procs.Size())
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
func (r *LiveCluster) Deliveries(p ProcID) []Delivery {
	r.mu.Lock()
	defer r.mu.Unlock()
	ds := r.cluster.Deliveries(p)
	return append([]Delivery(nil), ds...)
}

// Log returns a snapshot copy of the timed event log.
func (r *LiveCluster) Log() *props.Log {
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
func (r *LiveCluster) NetStats() net.Stats {
	return r.cluster.Net.Snapshot()
}

// Now returns the current virtual time.
func (r *LiveCluster) Now() Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cluster.Sim.Now()
}

// Procs returns the processor universe.
func (r *LiveCluster) Procs() ProcSet { return r.cluster.Procs }

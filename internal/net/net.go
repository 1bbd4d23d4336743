// Package net simulates the point-to-point packet network underneath the
// VS implementation. Delivery is driven by the failure statuses of
// Figure 4, realizing the physical-system assumptions of Section 8:
//
//   - while a directed channel is good, every packet sent on it arrives
//     within δ;
//   - while it is bad, no packet is delivered;
//   - while it is ugly, packets may be lost or delayed arbitrarily (here:
//     lost with probability uglyLossProb, otherwise delayed up to
//     uglyMaxDelayFactor·δ).
//
// Packets to or from a bad processor are also dropped: a bad processor is
// stopped, so it neither sends nor receives. Statuses are sampled at send
// time, matching the paper's "packet sent from p to q while the channel is
// good arrives within δ".
package net

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/failures"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/types"
)

// Packet is one point-to-point message. It is the shared transport.Packet:
// the simulated network and the real-socket transport deliver the same
// shape, so the protocol layers above are transport-agnostic.
type Packet = transport.Packet

// Network satisfies the shared send/deliver contract the protocol layers
// program against.
var _ transport.Transport = (*Network)(nil)

const (
	// uglyLossProb is the probability an ugly channel drops a packet.
	uglyLossProb = 0.5
	// uglyMaxDelayFactor bounds ugly-channel delays to this multiple of δ.
	uglyMaxDelayFactor = 10
)

// Config holds the network's timing parameters.
type Config struct {
	// Delta is the paper's δ: the delivery bound on good channels.
	Delta time.Duration
	// Jitter, when true, draws each good-channel delay uniformly from
	// (0, δ]; when false every good-channel delivery takes exactly δ (the
	// worst case, which makes measured times directly comparable to the
	// analytic bounds). Packets sent at the same instant on the same good
	// channel share one draw, as the real transport's frame batching
	// does: frames queued together leave in one syscall and arrive
	// together, in send order.
	Jitter bool
	// Transcode, when non-nil, replaces every payload at send time —
	// typically a serialize/deserialize round trip (see internal/codec) so
	// that no in-memory pointer survives a network hop. A transcode error
	// panics: it means a payload type is missing from the wire format,
	// which is a programming error.
	Transcode func(any) (any, error)
	// Obs, when non-nil, receives the layer's metrics (net.* counters and
	// the net.delay delivery-latency histogram). Nil disables
	// instrumentation at zero cost.
	Obs *obs.Registry
	// PayloadBytes, when non-nil alongside Obs, sizes each sent payload for
	// the net.bytes counter (the stack wires the wire-codec's encoded size
	// in wire mode). Left nil, byte accounting is skipped.
	PayloadBytes func(any) int
}

// Stats counts network activity for the experiment reports and for the
// chaos harness's non-vacuity assertions (a fault schedule that blackholes
// everything "passes" every safety check; Delivered > 0 proves traffic
// actually flowed).
type Stats struct {
	Sent                                     int
	Delivered                                int
	DroppedChannel, DroppedProc, DroppedUgly int
}

// Sub returns the activity between an earlier snapshot and this one:
// s - prev, counter by counter. Use it to assert traffic in a window, e.g.
// between a final heal and the end of a run.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Sent:           s.Sent - prev.Sent,
		Delivered:      s.Delivered - prev.Delivered,
		DroppedChannel: s.DroppedChannel - prev.DroppedChannel,
		DroppedProc:    s.DroppedProc - prev.DroppedProc,
		DroppedUgly:    s.DroppedUgly - prev.DroppedUgly,
	}
}

// counters is the internal, atomically updated form of Stats. The
// simulation mutates these from its single driver goroutine, but Stats()
// is part of the public read surface that the real-time runtime driver
// exposes to application goroutines — a plain struct raced there (caught
// by go test -race; see TestStatsConcurrentWithSim).
type counters struct {
	sent, delivered                          atomic.Int64
	droppedChannel, droppedProc, droppedUgly atomic.Int64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Sent:           int(c.sent.Load()),
		Delivered:      int(c.delivered.Load()),
		DroppedChannel: int(c.droppedChannel.Load()),
		DroppedProc:    int(c.droppedProc.Load()),
		DroppedUgly:    int(c.droppedUgly.Load()),
	}
}

// metrics holds the obs instrument handles, bound once at construction;
// with observability disabled every handle is nil and each update is a
// free no-op.
type metrics struct {
	sent, delivered *obs.Counter
	bytes           *obs.Counter
	dropChannel     *obs.Counter
	dropProc        *obs.Counter
	dropUgly        *obs.Counter
	delay           *obs.Histogram
}

// Network is the simulated network. Register a handler per processor, then
// Send freely; handlers run as simulator events.
type Network struct {
	sim      *sim.Sim
	oracle   *failures.Oracle
	cfg      Config
	handlers map[types.ProcID]func(Packet)
	ctr      counters
	m        metrics
	// coalesced caches the last jitter draw per directed channel so that
	// same-instant sends share it (Config.Jitter). Touched only from the
	// simulator goroutine, like handlers.
	coalesced map[chanKey]coalesceEntry
}

// chanKey identifies a directed channel for delay coalescing.
type chanKey struct{ from, to types.ProcID }

type coalesceEntry struct {
	at    sim.Time
	delay time.Duration
}

// New creates a network over the given simulator and failure oracle.
func New(s *sim.Sim, oracle *failures.Oracle, cfg Config) *Network {
	if cfg.Delta <= 0 {
		panic(fmt.Sprintf("net: non-positive delta %v", cfg.Delta))
	}
	return &Network{
		sim:      s,
		oracle:   oracle,
		cfg:      cfg,
		handlers: make(map[types.ProcID]func(Packet)),
		m: metrics{
			sent:        cfg.Obs.Counter("net.sent"),
			delivered:   cfg.Obs.Counter("net.delivered"),
			bytes:       cfg.Obs.Counter("net.bytes"),
			dropChannel: cfg.Obs.Counter("net.dropped_channel"),
			dropProc:    cfg.Obs.Counter("net.dropped_proc"),
			dropUgly:    cfg.Obs.Counter("net.dropped_ugly"),
			delay:       cfg.Obs.Histogram("net.delay"),
		},
	}
}

// Register installs the delivery handler for processor p. Packets to an
// unregistered processor are dropped.
func (n *Network) Register(p types.ProcID, h func(Packet)) { n.handlers[p] = h }

// Stats returns a consistent snapshot of the activity counters. Safe to
// call from any goroutine while the simulation runs (the counters are
// atomics): the real-time runtime driver exposes it to application code
// concurrently with the pacer goroutine.
func (n *Network) Stats() Stats { return n.ctr.snapshot() }

// Snapshot returns a copy of the activity counters, for diffing a window
// of activity with Stats.Sub. (Alias of Stats; named for call sites that
// capture a baseline to subtract later.)
func (n *Network) Snapshot() Stats { return n.ctr.snapshot() }

// Delta returns the configured δ.
func (n *Network) Delta() time.Duration { return n.cfg.Delta }

// Send transmits a packet from→to, applying the failure semantics. Sending
// to oneself delivers after a zero-delay event (local loopback).
func (n *Network) Send(from, to types.ProcID, payload any) {
	n.ctr.sent.Add(1)
	n.m.sent.Inc()
	if n.cfg.PayloadBytes != nil && n.m.bytes != nil {
		n.m.bytes.Add(int64(n.cfg.PayloadBytes(payload)))
	}
	if n.oracle.Proc(from).Down() || n.oracle.Proc(to).Down() {
		n.ctr.droppedProc.Add(1)
		n.m.dropProc.Inc()
		return
	}
	if n.cfg.Transcode != nil {
		decoded, err := n.cfg.Transcode(payload)
		if err != nil {
			panic(fmt.Sprintf("net: transcode %T: %v", payload, err))
		}
		payload = decoded
	}
	pkt := Packet{From: from, To: to, Payload: payload}
	if from == to {
		n.m.delay.Record(0)
		n.sim.Defer(func() { n.deliver(pkt) })
		return
	}
	switch n.oracle.Channel(from, to) {
	case failures.Bad:
		n.ctr.droppedChannel.Add(1)
		n.m.dropChannel.Inc()
	case failures.Good:
		d := n.cfg.Delta
		if n.cfg.Jitter {
			d = time.Duration(1 + n.sim.Rand().Int63n(int64(n.cfg.Delta)))
			if n.coalesced == nil {
				n.coalesced = make(map[chanKey]coalesceEntry)
			}
			key := chanKey{from, to}
			if e, ok := n.coalesced[key]; ok && e.at == n.sim.Now() {
				// Same instant, same channel: ride the batch already
				// in flight (sim.After is FIFO at equal times, so
				// send order within the group is preserved).
				d = e.delay
			} else {
				n.coalesced[key] = coalesceEntry{at: n.sim.Now(), delay: d}
			}
		}
		n.m.delay.Record(d)
		n.sim.After(d, func() { n.deliver(pkt) })
	case failures.Ugly:
		if n.sim.Rand().Float64() < uglyLossProb {
			n.ctr.droppedUgly.Add(1)
			n.m.dropUgly.Inc()
			return
		}
		d := time.Duration(1 + n.sim.Rand().Int63n(int64(n.cfg.Delta*uglyMaxDelayFactor)))
		n.m.delay.Record(d)
		n.sim.After(d, func() { n.deliver(pkt) })
	}
}

// Broadcast sends the payload from p to every processor in dst except p
// itself.
func (n *Network) Broadcast(from types.ProcID, dst types.ProcSet, payload any) {
	for _, to := range dst.Members() {
		if to != from {
			n.Send(from, to, payload)
		}
	}
}

func (n *Network) deliver(pkt Packet) {
	// A processor that turned bad (or amnesiac) in flight is stopped: drop.
	if n.oracle.Proc(pkt.To).Down() {
		n.ctr.droppedProc.Add(1)
		n.m.dropProc.Inc()
		return
	}
	h, ok := n.handlers[pkt.To]
	if !ok {
		return
	}
	n.ctr.delivered.Add(1)
	n.m.delivered.Inc()
	h(pkt)
}

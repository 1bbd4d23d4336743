package liverun

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/live"
)

// This file is the live analogue of props.CheckRecoveryLiveness. Once
// the final heal lands, a primary must re-form and the order must grow
// again within a configured bound (CheckBoundedRecovery — the paper's
// conditional liveness, timed against the wall clock; every scenario).
// For the quorum-loss families, additionally: while at least
// QuorumLossThreshold(n) nodes are simultaneously faulted no primary
// component can exist, so the total order cannot grow anywhere — no
// node's delivered prefix may exceed the pre-epoch cluster-wide
// high-water (CheckPrimaryLoss — the non-vacuity guard turned inside
// out: the interesting runs are the ones where ordering provably
// stopped).
//
// Evidence comes from live STATUS sampling, not from the traces: trace
// timestamps are per-incarnation simulated time and cannot be compared
// across restarts, while the sampler's wall clock is shared with the
// injector's schedule offsets.

// DeliverySample is one cluster-wide snapshot of per-node delivered
// counts, taken by the status sampler. Delivered[i] is -1 while node i
// is unreachable (dead, SIGSTOPped past the poll timeout, or between
// incarnations). Gen[i] increments every time the sampler's connection
// to node i is re-established; the checks compare prefix lengths (which
// are valid across reconnects and incarnations), but the generation is
// recorded in the artifact so a surprising count can be attributed to a
// redial — e.g. a SIGSTOPped daemon answering its queued STATUS backlog
// all at once on SIGCONT — when diagnosing a failed run offline.
type DeliverySample struct {
	AtMS      int64   `json:"at_ms"`
	Delivered []int64 `json:"delivered"`
	Gen       []int   `json:"gen"`
}

// highWaterBefore returns the largest delivered count observed at any
// node in any sample at or before cutMS. Delivered counts are prefix
// lengths of the one shared total order, so this is the length of the
// longest established prefix the sampler has evidence for by cutMS —
// comparable across nodes, reconnects, and incarnations alike.
func highWaterBefore(samples []DeliverySample, cutMS int64) int64 {
	var high int64
	for _, s := range samples {
		if s.AtMS > cutMS {
			break // samples are recorded in time order
		}
		for _, d := range s.Delivered {
			if d > high {
				high = d
			}
		}
	}
	return high
}

// CheckPrimaryLoss verifies that the total order did not grow during
// any loss epoch: inside an epoch's guarded interval (start+grace, end],
// no node's delivered count may exceed the cluster-wide high-water
// observed up to start+grace.
//
// The predicate is a high-water mark, not per-node flatlining, because
// the paper permits a non-primary component to keep *releasing* the
// established prefix: survivors exchange summaries on a view event and
// re-deliver values the lost primary had already ordered, restarted
// nodes re-report their replayed durable prefix, and a node whose
// WAL-gated release pipeline lags may drain pre-epoch confirmations
// well into the outage. All of that legitimate catch-up stays at or
// below the longest prefix some node already held — only extending the
// order requires a primary. The grace prefix folds boundary effects
// (injection lag, confirmations in flight when the fault lands) into
// the baseline rather than counting them as growth.
//
// This gate checks liveness semantics (no new ordering), not safety: a
// divergent minority order would show up as delivered counts, but it is
// the merged-trace TO conformance check that convicts it.
//
// Too few guarded samples make the run inconclusive, which is an error:
// the guard exists to prove the scenario genuinely exercised the
// no-primary regime, so "could not observe it" must not pass.
func CheckPrimaryLoss(samples []DeliverySample, epochs []chaos.Epoch, grace time.Duration) error {
	if len(epochs) == 0 {
		return fmt.Errorf("primary-loss: no loss epochs in schedule")
	}
	guarded := 0
	for _, e := range epochs {
		startMS, endMS := e.Start.Duration().Milliseconds(), e.End.Duration().Milliseconds()
		lo := startMS + grace.Milliseconds()
		high := highWaterBefore(samples, lo)
		for _, s := range samples {
			if s.AtMS <= lo || s.AtMS > endMS {
				continue
			}
			guarded++
			for p, d := range s.Delivered {
				if d > high {
					return fmt.Errorf("primary-loss: node %d delivered %d values at %dms, past the pre-epoch high-water %d — the order grew during loss epoch [%d,%d]ms",
						p, d, s.AtMS, high, startMS, endMS)
				}
			}
		}
	}
	if guarded < 1 {
		return fmt.Errorf("primary-loss: inconclusive: no sample inside any guarded loss interval (%d samples, %d epochs, grace %v)",
			len(samples), len(epochs), grace)
	}
	return nil
}

// CheckBoundedRecovery verifies the live conditional-liveness bound:
// after the final heal at healMS, some node's delivered count must
// exceed the pre-heal cluster-wide high-water — the order must actually
// grow, so a laggard draining its backlog or a restarted node
// re-reporting its replayed prefix does not count as recovery — no
// later than boundMS past the heal. It returns the observed resumption
// offset from healMS.
func CheckBoundedRecovery(samples []DeliverySample, healMS, boundMS int64) (int64, error) {
	high := highWaterBefore(samples, healMS)
	for _, s := range samples {
		if s.AtMS <= healMS {
			continue
		}
		for _, d := range s.Delivered {
			if d > high {
				resume := s.AtMS - healMS
				if resume > boundMS {
					return resume, fmt.Errorf("recovery: order growth resumed %dms after heal, bound %dms", resume, boundMS)
				}
				return resume, nil
			}
		}
	}
	return -1, fmt.Errorf("recovery: the order never grew past its pre-heal high-water %d after the heal at %dms (bound %dms, %d samples)",
		high, healMS, boundMS, len(samples))
}

// statusSampler polls every daemon's STATUS over dedicated client
// connections and accumulates cluster-wide DeliverySamples on a fixed
// wall-clock cadence (offsets relative to the injection start, the same
// clock the schedule's AtMS offsets run on).
type statusSampler struct {
	start    time.Time
	interval time.Duration
	stop     chan struct{}
	wg       sync.WaitGroup

	mu      sync.Mutex
	latest  []int64 // last delivered count per node, -1 if unreachable
	gen     []int   // connection generation per node
	samples []DeliverySample
}

// startStatusSampler begins polling. Offsets in the recorded samples are
// measured from start.
func startStatusSampler(addrs []string, start time.Time, interval time.Duration, logf func(string, ...any)) *statusSampler {
	if interval <= 0 {
		interval = 200 * time.Millisecond
	}
	sm := &statusSampler{
		start:    start,
		interval: interval,
		stop:     make(chan struct{}),
		latest:   make([]int64, len(addrs)),
		gen:      make([]int, len(addrs)),
	}
	for i := range sm.latest {
		sm.latest[i] = -1
	}
	for i, addr := range addrs {
		sm.wg.Add(1)
		go sm.pollNode(i, addr, logf)
	}
	sm.wg.Add(1)
	go sm.snapshotLoop()
	return sm
}

// pollNode keeps one node's latest count fresh. Any error — dial
// failure, reply timeout — marks the node unreachable, drops the
// connection, and redials under a new generation: a reply that was
// queued behind a timeout (a SIGSTOPped daemon answers everything at
// once on SIGCONT) must never be attributed to the old connection.
func (sm *statusSampler) pollNode(i int, addr string, logf func(string, ...any)) {
	defer sm.wg.Done()
	var c *live.Client
	defer func() {
		if c != nil {
			c.Close()
		}
	}()
	for {
		select {
		case <-sm.stop:
			return
		default:
		}
		if c == nil {
			nc, err := live.DialClient(addr, sm.interval)
			if err != nil {
				// A dead node refuses instantly; pace the redial loop.
				sm.record(i, -1, false)
				select {
				case <-sm.stop:
					return
				case <-time.After(sm.interval):
				}
				continue
			}
			c = nc
			sm.record(i, -1, true) // fresh generation, no count yet
		}
		st, err := c.Status(sm.interval)
		if err != nil {
			c.Close()
			c = nil
			sm.record(i, -1, false)
			continue
		}
		sm.record(i, st.Delivered, false)
		select {
		case <-sm.stop:
			return
		case <-time.After(sm.interval):
		}
	}
}

func (sm *statusSampler) record(i int, delivered int64, newGen bool) {
	sm.mu.Lock()
	sm.latest[i] = delivered
	if newGen {
		sm.gen[i]++
	}
	sm.mu.Unlock()
}

func (sm *statusSampler) snapshotLoop() {
	defer sm.wg.Done()
	ticker := time.NewTicker(sm.interval)
	defer ticker.Stop()
	for {
		select {
		case <-sm.stop:
			return
		case <-ticker.C:
			sm.mu.Lock()
			s := DeliverySample{
				AtMS:      time.Since(sm.start).Milliseconds(),
				Delivered: append([]int64(nil), sm.latest...),
				Gen:       append([]int(nil), sm.gen...),
			}
			sm.samples = append(sm.samples, s)
			sm.mu.Unlock()
		}
	}
}

// stopAndSamples ends polling and returns everything recorded.
func (sm *statusSampler) stopAndSamples() []DeliverySample {
	close(sm.stop)
	sm.wg.Wait()
	return sm.samples
}

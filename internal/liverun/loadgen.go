package liverun

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/live"
	"repro/internal/obs"
)

// The loadgen's closed-loop and retry policy.
const (
	// maxOutstanding caps submitted-but-undelivered values per connection
	// (closed-loop backpressure). When a connection is at its cap the
	// generator skips its turn rather than queueing unboundedly into a
	// partitioned or killed node.
	maxOutstanding = 256
	// opTimeout reclassifies a submission still undelivered after this
	// long as stalled: it stops holding a closed-loop outstanding slot and
	// its eventual delivery counts as a stalled recovery instead of a
	// latency sample. Quorum-loss epochs stall every op cluster-wide; the
	// attribution is what lets a passing run distinguish "rode out a
	// stall" from "failed".
	opTimeout = 5 * time.Second
	// retryBase, retryMax and maxRetries shape the jittered exponential
	// backoff applied to submissions the daemon bounced with BUSY
	// (backpressure) or that failed to send (dead connection). Both cases
	// are safe to retry verbatim: a bounced value never entered the
	// system, and a failed write never left the client. An op is a hard
	// failure only when its retry budget is exhausted.
	retryBase  = 100 * time.Millisecond
	retryMax   = 2 * time.Second
	maxRetries = 10
)

// LoadOptions configures a load-generation run against a live cluster.
type LoadOptions struct {
	// Addrs are the client addresses of every node; submissions round-robin
	// across them and each connection's delivery stream is consumed.
	Addrs []string
	// Rate is the target submission rate across the cluster, per second.
	Rate int
	// Duration is the submission window; deliveries are consumed for up to
	// Drain longer (default 10s) while outstanding values land.
	Duration time.Duration
	Drain    time.Duration
	// RunID uniquifies values across runs (checker integrity relies on
	// value uniqueness).
	RunID string
	// Profile picks which node each submission targets: "uniform"
	// (default) round-robins; "zipfian" skews toward low-index nodes
	// (rand.Zipf, s=1.2), concentrating load the way real clients pile
	// onto a few frontends — a skewed origin mix stresses the total-order
	// path differently than a uniform one.
	Profile string
	// Arrival shapes submission timing: "steady" (default) paces at Rate;
	// "bursty" alternates 500ms at 4×Rate with 1.5s of silence (same
	// average), hammering flow control and timer slack at the burst edges.
	Arrival string
	// OpenLoop disables the maxOutstanding backpressure: submissions keep
	// coming at the arrival schedule regardless of delivery progress, the
	// way an open-loop client population would. Skips then only count dead
	// connections.
	OpenLoop bool
	// Seed fixes the profile's randomness (zipfian node choice, retry
	// jitter). 0 means 1.
	Seed int64
	Logf func(string, ...any)
}

// LoadReport is one load-generation run's result: end-to-end throughput,
// submit → delivery latency at the origin, and the generator's own
// accounting counters (loadgen.*). All times are wall-clock.
type LoadReport struct {
	// Seed is the seed the run's randomness actually used (LoadOptions.Seed
	// after defaulting).
	Seed      int64  `json:"seed"`
	Scenario  string `json:"scenario"`
	ElapsedNS int64  `json:"elapsed_ns"`
	// Bcasts counts first submissions; Deliveries counts delivery lines
	// observed on every connection, so a fully delivered run has
	// Deliveries = n × Bcasts.
	Bcasts           int64                `json:"bcasts"`
	Deliveries       int64                `json:"deliveries"`
	DeliveriesPerSec float64              `json:"deliveries_per_sec"`
	DeliveryLatency  obs.HistogramSummary `json:"delivery_latency"`
	Counters         map[string]int64     `json:"counters"`
}

// connSlot is one node's client connection; reconnects replace c.
type connSlot struct {
	addr string
	mu   sync.Mutex
	c    *live.Client

	outstanding atomic.Int64
	submitted   atomic.Int64
}

func (s *connSlot) client() *live.Client {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c
}

// opState tracks one submitted value from first send to resolution.
type opState struct {
	node     int
	firstAt  time.Time
	attempts int
	// stalled marks an op past opTimeout: its outstanding slot has been
	// released and its delivery (if any) counts as a stalled recovery.
	stalled bool
}

// retryItem is one value awaiting resubmission after backoff.
type retryItem struct {
	value string
	node  int
	dueAt time.Time
}

// RunLoad drives the cluster at the target rate and reports throughput
// and delivery latency. Delivery latency is measured closed-loop at the
// submitting connection: value
// submitted at node i, timestamp taken; first sighting of that value in
// node i's delivery stream closes the sample. A killed node's connection
// is redialed until the run ends, so a mid-run restart shows up as a
// latency tail rather than a generator failure; a stalled (no-primary)
// cluster shows up as BUSY retries and stalled-op attribution rather
// than hard failures.
func RunLoad(opts LoadOptions) (LoadReport, error) {
	if opts.Rate <= 0 {
		opts.Rate = 100
	}
	if opts.Drain <= 0 {
		opts.Drain = 10 * time.Second
	}
	if opts.Profile == "" {
		opts.Profile = "uniform"
	}
	if opts.Arrival == "" {
		opts.Arrival = "steady"
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	// Node choice per submission slot.
	var pick func(seq int) int
	switch opts.Profile {
	case "uniform":
		pick = func(seq int) int { return seq % len(opts.Addrs) }
	case "zipfian":
		rng := rand.New(rand.NewSource(opts.Seed))
		zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(opts.Addrs)-1))
		pick = func(int) int { return int(zipf.Uint64()) }
	default:
		return LoadReport{}, fmt.Errorf("loadgen: unknown profile %q", opts.Profile)
	}

	// Submission schedule: offset from start for the seq'th submission.
	var schedule func(seq int) time.Duration
	switch opts.Arrival {
	case "steady":
		interval := time.Second / time.Duration(opts.Rate)
		schedule = func(seq int) time.Duration { return time.Duration(seq) * interval }
	case "bursty":
		// 2s cycle: all of the cycle's submissions land in the first
		// 500ms (4× the average rate), then 1.5s of silence.
		const cycle, burst = 2 * time.Second, 500 * time.Millisecond
		perCycle := opts.Rate * 2
		if perCycle < 1 {
			perCycle = 1
		}
		schedule = func(seq int) time.Duration {
			return time.Duration(seq/perCycle)*cycle +
				time.Duration(seq%perCycle)*(burst/time.Duration(perCycle))
		}
	default:
		return LoadReport{}, fmt.Errorf("loadgen: unknown arrival %q", opts.Arrival)
	}

	var (
		latency   = obs.New().Histogram("loadgen.delivery_latency")
		delivered atomic.Int64 // delivery lines observed, all connections
		samples   atomic.Int64
		skips     atomic.Int64 // backpressure + dead-connection skips

		rejected         atomic.Int64 // BUSY bounces observed
		retries          atomic.Int64 // resubmissions performed
		stalledOps       atomic.Int64 // ops reclassified past opTimeout
		stalledRecovered atomic.Int64 // stalled ops that delivered anyway
		hardFailures     atomic.Int64 // retry budget exhausted

		stop = make(chan struct{})
		wg   sync.WaitGroup
	)

	slots := make([]*connSlot, len(opts.Addrs))
	for i, addr := range opts.Addrs {
		c, err := live.DialClient(addr, 30*time.Second)
		if err != nil {
			close(stop)
			return LoadReport{}, err
		}
		slots[i] = &connSlot{addr: addr, c: c}
	}

	// Op tracking and the retry queue, shared between the submission
	// loop, the consumers, and the timeout scanner.
	var (
		opsMu sync.Mutex
		ops   = make(map[string]*opState)
		queue []retryItem
		// jitter rng, guarded by opsMu (low-rate: retries only).
		rng = rand.New(rand.NewSource(opts.Seed + 0x10ad))
	)
	backoff := func(attempts int) time.Duration {
		d := retryBase << uint(attempts-1)
		if d > retryMax || d <= 0 {
			d = retryMax
		}
		// Jitter to 50–150%: a thousand clients bounced by the same
		// stall must not retry in lockstep.
		return d/2 + time.Duration(rng.Int63n(int64(d)))
	}
	// requeue schedules one more attempt for a value that never entered
	// the system, or declares it a hard failure. Caller holds opsMu.
	requeue := func(value string, st *opState) {
		st.attempts++
		if st.attempts > maxRetries {
			hardFailures.Add(1)
			if !st.stalled {
				slots[st.node].outstanding.Add(-1)
			}
			delete(ops, value)
			return
		}
		queue = append(queue, retryItem{value: value, node: st.node, dueAt: time.Now().Add(backoff(st.attempts))})
	}

	// One consumer per node: counts every delivery, closes the latency
	// sample for values this generator submitted on the same connection,
	// routes BUSY bounces into the retry queue, and redials when the
	// daemon dies mid-run.
	for i, s := range slots {
		wg.Add(1)
		go func(i int, s *connSlot) {
			defer wg.Done()
			// Only values this generator submitted on this same connection
			// close a sample here: the value's g<i>- prefix names its origin,
			// so the latency measured is submit → delivery at the origin.
			mine := fmt.Sprintf("g%d-", i)
			for {
				c := s.client()
				alive := true
				for alive {
					select {
					case d, ok := <-c.Deliveries():
						if !ok {
							alive = false
							break
						}
						delivered.Add(1)
						if len(d.Value) < len(mine) || d.Value[:len(mine)] != mine {
							break
						}
						opsMu.Lock()
						if st, ok := ops[d.Value]; ok {
							if st.stalled {
								stalledRecovered.Add(1)
							} else {
								latency.Record(time.Since(st.firstAt))
								samples.Add(1)
								s.outstanding.Add(-1)
							}
							delete(ops, d.Value)
						}
						opsMu.Unlock()
					case v := <-c.Rejects():
						rejected.Add(1)
						opsMu.Lock()
						if st, ok := ops[v]; ok {
							requeue(v, st)
						}
						opsMu.Unlock()
					}
				}
				// Stream closed: daemon gone. Redial until it returns or
				// the run ends. The values in flight keep their slots: a
				// delivery on the new connection, the timeout scanner or
				// an exhausted retry budget releases each exactly once, so
				// one lost before durability frees its slot at opTimeout.
				select {
				case <-stop:
					return
				default:
				}
				logf("connection to %s lost; redialing", s.addr)
				c.Close()
				nc, err := live.DialClient(s.addr, 60*time.Second)
				if err != nil {
					logf("redial %s failed: %v", s.addr, err)
					return
				}
				s.mu.Lock()
				s.c = nc
				s.mu.Unlock()
				logf("reconnected to %s", s.addr)
			}
		}(i, s)
	}

	// Timeout scanner: past opTimeout an op stops holding its closed-loop
	// slot and is attributed as stalled — during a quorum-loss epoch this
	// is every op in flight, and it is precisely what lets the generator
	// keep probing a stalled cluster instead of wedging at maxOutstanding.
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(250 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ticker.C:
				now := time.Now()
				opsMu.Lock()
				for _, st := range ops {
					if !st.stalled && now.Sub(st.firstAt) > opTimeout {
						st.stalled = true
						stalledOps.Add(1)
						slots[st.node].outstanding.Add(-1)
					}
				}
				opsMu.Unlock()
			}
		}
	}()

	// sendValue submits (or resubmits) a tracked value; a send error
	// requeues it — the write never left the client, so the value is not
	// in the system and a verbatim retry is safe.
	sendValue := func(value string, node int, isRetry bool) {
		if err := slots[node].client().Submit(value); err != nil {
			opsMu.Lock()
			if st, ok := ops[value]; ok {
				requeue(value, st)
			}
			opsMu.Unlock()
			return
		}
		if isRetry {
			retries.Add(1)
		} else {
			slots[node].submitted.Add(1)
		}
	}
	// pumpRetries resubmits every due retry item.
	pumpRetries := func() {
		now := time.Now()
		opsMu.Lock()
		var due []retryItem
		kept := queue[:0]
		for _, it := range queue {
			if it.dueAt.Before(now) {
				due = append(due, it)
			} else {
				kept = append(kept, it)
			}
		}
		queue = kept
		opsMu.Unlock()
		for _, it := range due {
			sendValue(it.value, it.node, true)
		}
	}

	// Submission loop: profile picks the node, the arrival schedule paces,
	// and (closed-loop only) per-connection backpressure skips a full node.
	start := time.Now()
	deadline := start.Add(opts.Duration)
	seq := 0
	for time.Now().Before(deadline) {
		pumpRetries()
		node := pick(seq)
		s := slots[node]
		if !opts.OpenLoop && s.outstanding.Load() >= maxOutstanding {
			skips.Add(1)
		} else {
			value := fmt.Sprintf("g%d-%d-%s", node, seq, opts.RunID)
			opsMu.Lock()
			ops[value] = &opState{node: node, firstAt: time.Now()}
			opsMu.Unlock()
			s.outstanding.Add(1)
			sendValue(value, node, false)
		}
		seq++
		next := start.Add(schedule(seq))
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
	}

	// Drain: keep pumping retries and wait for outstanding values, up to
	// the drain budget. Values submitted into a node that died
	// pre-durability are permanently lost (no client lives at a wiped
	// processor) — that bounds the wait.
	drainDeadline := time.Now().Add(opts.Drain)
	for time.Now().Before(drainDeadline) {
		pumpRetries()
		var out int64
		for _, s := range slots {
			out += s.outstanding.Load()
		}
		opsMu.Lock()
		queued := len(queue)
		opsMu.Unlock()
		if out <= 0 && queued == 0 {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	close(stop)
	for _, s := range slots {
		s.client().Close()
	}
	wg.Wait()

	var totalSubmitted, unresolved int64
	for _, s := range slots {
		totalSubmitted += s.submitted.Load()
	}
	opsMu.Lock()
	unresolved = int64(len(ops))
	opsMu.Unlock()
	elapsed := time.Since(start)

	rep := LoadReport{
		Seed:            opts.Seed,
		Scenario:        fmt.Sprintf("loadgen-n%d-rate%d-%s-%s", len(opts.Addrs), opts.Rate, opts.Profile, opts.Arrival),
		ElapsedNS:       elapsed.Nanoseconds(),
		Bcasts:          totalSubmitted,
		Deliveries:      delivered.Load(),
		DeliveryLatency: latency.Summary(),
		Counters: map[string]int64{
			"loadgen.submitted":         totalSubmitted,
			"loadgen.delivered_lines":   delivered.Load(),
			"loadgen.latency_samples":   samples.Load(),
			"loadgen.skips":             skips.Load(),
			"loadgen.unresolved":        unresolved,
			"loadgen.rejected":          rejected.Load(),
			"loadgen.retries":           retries.Load(),
			"loadgen.stalled_ops":       stalledOps.Load(),
			"loadgen.stalled_recovered": stalledRecovered.Load(),
			"loadgen.hard_failures":     hardFailures.Load(),
		},
	}
	if secs := elapsed.Seconds(); secs > 0 {
		rep.DeliveriesPerSec = float64(rep.Deliveries) / secs
	}
	return rep, nil
}

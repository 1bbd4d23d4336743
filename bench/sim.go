package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"time"
)

// Simulated workloads: the deterministic n = 5 stack with rsm.Memory on
// top, driven at a fixed rate in virtual time. Sockets, timers and the
// scheduler do no work here; vstoto, vsimpl, recovery, codec and rsm do all
// of it on one goroutine, so sim_ops_per_s is the protocol's CPU cost per
// op and the virtual-time numbers are exact functions of the seed.

const (
	simN     = 5
	simDelta = time.Millisecond
	simKeys  = 1000
	// simSlice is how much virtual time the driver advances per RunFor call;
	// ops due inside a slice are scheduled at their exact due instants first.
	simSlice = 10 * time.Millisecond
	// churnCycle is one fault cycle: fault at +20..40 ms, repair at
	// +120..140 ms (a ~100 ms outage, four times the detection bound b),
	// then ~110 ms of quiet (over twice b + d) so every repair stabilizes
	// before the next fault.
	churnCycle = 250 * time.Millisecond
	// crashGuard keeps the generator off a processor from just before its
	// amnesia crash until its restart: a submission inside the WAL's λ
	// window would be torn by the crash and (correctly) never delivered,
	// and the workload is built so that no operation fails.
	crashGuard = 5 * time.Millisecond
)

type simParams struct {
	rate  int  // ops per virtual second
	churn bool // apply the seeded fault schedule
}

// simOp is one generated operation. seq is its per-origin submission index,
// which is also the nonce rsm.Memory assigns, so the op's identity
// (origin, seq) is known without decoding delivered values.
type simOp struct {
	origin, seq int
	read        bool
	key, val    string
	subV        simTime // virtual submit instant
	subW        float64 // wall ms since pass start
	subCallUS   float64
	applied     bool
	appliedV    simTime
	appliedW    float64
	readGot     string
	// traced ops only
	orderV, fanV simTime
	orderW, fanW float64
	seenAt       int
}

// recovery is one repair (heal or restart) whose completion is pending:
// service is back once every cut-off node has delivered past the order
// length the cluster had reached at the repair instant.
type recoveryWait struct {
	at      simTime
	base    int
	waiting map[int]bool
}

type simSystem struct {
	params simParams
	traced bool
	c      *cluster
	mem    *memory
	reg    *registry
	rng    *rand.Rand // keys, read/write mix
	frng   *rand.Rand // fault schedule

	ops     [][]*simOp // per origin, in submission order
	nOps    int
	applied int
	count   [simN]int       // deliveries seen per node
	perFrom [simN][simN]int // per node, deliveries seen per origin
	digests [simN]orderDigest
	start   time.Time
	vstart  simTime
	recovMS []float64
	pending []*recoveryWait
	// The generator stays off origin p during [guardFrom[p], guardUntil[p]).
	guardFrom, guardUntil [simN]simTime
	nextOrig              int
	cycles                int
}

func bootSim(params simParams) func(e *env, traced bool) (system, error) {
	return func(e *env, traced bool) (system, error) {
		s := &simSystem{
			params: params,
			traced: traced,
			rng:    rand.New(rand.NewSource(splitmix(e.seed, 1))),
			frng:   rand.New(rand.NewSource(splitmix(e.seed, 2))),
			ops:    make([][]*simOp, simN),
		}
		if traced {
			s.reg = newRegistry()
		}
		for i := range s.digests {
			s.digests[i] = newOrderDigest()
		}
		s.c = newSimCluster(splitmix(e.seed, 3), simN, simDelta, s.reg, s.onDeliver)
		s.mem = newMemory(s.c)
		// The probe: one write, applied at every replica, ends set-up.
		s.start = time.Now()
		s.submit(&simOp{origin: 0, key: "probe", val: "probe"})
		if err := s.runUntilApplied(2 * time.Second); err != nil {
			return nil, fmt.Errorf("probe: %w", err)
		}
		return s, nil
	}
}

func (s *simSystem) close() {}

func (s *simSystem) wallMS() float64 { return ms(time.Since(s.start)) }

// submit hands the op to rsm.Memory at the current virtual instant.
func (s *simSystem) submit(op *simOp) {
	s.ops[op.origin] = append(s.ops[op.origin], op)
	op.seq = len(s.ops[op.origin])
	s.nOps++
	op.subV = s.c.Sim.Now()
	op.subW = s.wallMS()
	onApplied := func(got string) {
		op.applied, op.appliedV, op.appliedW, op.readGot = true, s.c.Sim.Now(), s.wallMS(), got
		s.applied++
	}
	t0 := time.Now()
	if op.read {
		s.mem.ReadAtomic(procID(op.origin), op.key, onApplied)
	} else {
		s.mem.Write(procID(op.origin), op.key, op.val, func() { onApplied("") })
	}
	op.subCallUS = float64(time.Since(t0)) / float64(time.Microsecond)
}

// onDeliver is the stack's OnDeliver hook: every delivery at every node, in
// order. It maintains the per-node digests and counts, completes pending
// recoveries, and stamps the sampled ops' order/fanout spans.
func (s *simSystem) onDeliver(p procID, d delivery) {
	q, from := int(p), int(d.From)
	s.digests[q].add(from, string(d.Value))
	s.count[q]++
	s.perFrom[q][from]++
	seq := s.perFrom[q][from]
	if len(s.pending) > 0 {
		keep := s.pending[:0]
		for _, r := range s.pending {
			if r.waiting[q] && s.count[q] > r.base {
				delete(r.waiting, q)
			}
			if len(r.waiting) == 0 {
				s.recovMS = append(s.recovMS, ms(s.c.Sim.Now().Sub(r.at)))
			} else {
				keep = append(keep, r)
			}
		}
		s.pending = keep
	}
	if !s.traced || seq%traceEvery != 0 || seq > len(s.ops[from]) {
		return
	}
	op := s.ops[from][seq-1]
	if q == from {
		op.orderV, op.orderW = s.c.Sim.Now(), s.wallMS()
	}
	op.seenAt++
	if op.seenAt == simN {
		op.fanV, op.fanW = s.c.Sim.Now(), s.wallMS()
	}
}

func (s *simSystem) runUntilApplied(limit time.Duration) error {
	deadline := s.c.Sim.Now().Add(limit)
	for {
		done := s.applied == s.nOps
		for p := 0; done && p < simN; p++ {
			done = s.mem.AppliedCount(procID(p)) == s.nOps
		}
		if done {
			return nil
		}
		if s.c.Sim.Now() >= deadline {
			return fmt.Errorf("only %d of %d ops applied at their origin after %v more virtual time", s.applied, s.nOps, limit)
		}
		if err := s.c.Sim.RunFor(simSlice); err != nil {
			return err
		}
	}
}

// nextOrigin rotates over the processors, skipping one inside its crash
// guard window.
func (s *simSystem) nextOrigin(at simTime) int {
	for i := 0; i < simN; i++ {
		o := s.nextOrig
		s.nextOrig = (s.nextOrig + 1) % simN
		if at < s.guardFrom[o] || at >= s.guardUntil[o] {
			return o
		}
	}
	panic("bench: every origin is inside a crash guard")
}

// armCycle builds one fault cycle starting at t0 as a failures.Schedule of
// its own making and arms it: nine in ten cycles cut a rotating pair off
// from the other three (3|2 partition) and heal it; every tenth crashes a
// seeded victim with amnesia and restarts it through WAL replay.
func (s *simSystem) armCycle(k int, t0 simTime) {
	fault := t0.Add(20*time.Millisecond + time.Duration(s.frng.Intn(20_000))*time.Microsecond)
	repair := t0.Add(120*time.Millisecond + time.Duration(s.frng.Intn(20_000))*time.Microsecond)
	var sched schedule
	var cut []int
	if k%10 == 9 {
		v := s.frng.Intn(simN)
		cut = []int{v}
		sched = append(sched,
			faultEvent{Time: fault, Proc: procID(v), Status: statusAmnesia},
			faultEvent{Time: repair, Proc: procID(v), Status: statusGood})
		s.guardFrom[v], s.guardUntil[v] = fault.Add(-crashGuard), repair
	} else {
		a, b := k%simN, (k+1)%simN
		cut = []int{a, b}
		for _, phase := range []struct {
			at     simTime
			status faultStatus
		}{{fault, statusBad}, {repair, statusGood}} {
			for p := 0; p < simN; p++ {
				if p == a || p == b {
					continue
				}
				for _, m := range cut {
					sched = append(sched,
						faultEvent{Time: phase.at, Channel: true, Pair: faultPair{From: procID(p), To: procID(m)}, Status: phase.status},
						faultEvent{Time: phase.at, Channel: true, Pair: faultPair{From: procID(m), To: procID(p)}, Status: phase.status})
				}
			}
		}
	}
	s.c.ApplySchedule(sched)
	// Armed after the schedule, so at the repair instant it runs after the
	// oracle events and sees the order length the cluster had reached.
	s.c.Sim.At(repair, func() {
		base := 0
		for _, n := range s.count {
			if n > base {
				base = n
			}
		}
		w := &recoveryWait{at: repair, base: base, waiting: map[int]bool{}}
		for _, m := range cut {
			w.waiting[m] = true
		}
		s.pending = append(s.pending, w)
	})
	s.cycles++
}

func (s *simSystem) measure(e *env) (*pass, error) {
	c := s.c
	interval := time.Second / time.Duration(s.params.rate)
	cpu0 := cpuSeconds()
	alloc0 := totalAlloc()
	probeOps := s.nOps
	s.start = time.Now()
	s.vstart = c.Sim.Now()
	next := s.vstart
	nextCycle := s.vstart
	var inSim time.Duration
	type progress struct {
		wall float64
		ops  int
	}
	var prog []progress
	gen := 0
	// Under churn the window ends on a cycle boundary with the load still on:
	// a repair completes only when its cut-off nodes deliver a value ordered
	// after it, so stopping the generator inside an outage would leave that
	// repair's recovery unmeasurable. nextCycle is a whole number of slices
	// from vstart, so the loop lands on it exactly.
	for !e.stopped(s.start, gen) || s.params.churn && c.Sim.Now() < nextCycle {
		sliceEnd := c.Sim.Now().Add(simSlice)
		if s.params.churn && c.Sim.Now() >= nextCycle {
			s.armCycle(s.cycles, nextCycle)
			nextCycle = nextCycle.Add(churnCycle)
		}
		for ; next < sliceEnd; next = next.Add(interval) {
			op := &simOp{origin: s.nextOrigin(next), read: s.rng.Intn(10) == 0, key: "k" + itoa(s.rng.Intn(simKeys))}
			if !op.read {
				op.val = padValue("v"+itoa(gen), 32)
			}
			gen++
			c.Sim.At(next, func() { s.submit(op) })
		}
		t0 := time.Now()
		if err := c.Sim.RunFor(simSlice); err != nil {
			return nil, err
		}
		inSim += time.Since(t0)
		prog = append(prog, progress{s.wallMS(), s.applied - probeOps})
	}
	t0 := time.Now()
	if err := s.runUntilApplied(5 * time.Second); err != nil {
		return nil, err
	}
	inSim += time.Since(t0)
	elapsed := time.Since(s.start)
	cpu := cpuSeconds() - cpu0
	alloc1 := totalAlloc()
	if len(s.pending) > 0 {
		return nil, fmt.Errorf("%d repairs never recovered", len(s.pending))
	}

	p := &pass{attempted: gen, digest: s.digests[0].String()}
	checkRate, replayRate, err := s.verify()
	if err != nil {
		return nil, err
	}
	p.throughput = float64(gen) / elapsed.Seconds()
	p.heapMB = retainedHeapMB()

	var commitMS []float64
	var submitUS float64
	for o, ops := range s.ops {
		for _, op := range ops {
			if !op.applied {
				p.failed++
			}
			if o == 0 && op.seq == 1 {
				continue // the set-up probe
			}
			commitMS = append(commitMS, ms(op.appliedV.Sub(op.subV)))
			submitUS += op.subCallUS
		}
	}
	p.latencyMS = commitMS
	p.cpuMSPerOp = cpu * 1000 / float64(gen)
	selfFrac := 1 - inSim.Seconds()/elapsed.Seconds()
	rec := summarize(s.recovMS)

	// history_slowdown: ops/s over the last quarter of the ops ÷ the first.
	slow := 0.0
	if n := len(prog); n >= 8 {
		total := prog[n-1].ops
		at := func(ops int) float64 {
			for _, pr := range prog {
				if pr.ops >= ops {
					return pr.wall
				}
			}
			return prog[n-1].wall
		}
		first := float64(total/4) / at(total/4)
		last := float64(total-3*total/4) / (prog[n-1].wall - at(3*total/4))
		slow = ratio(last, first)
	}

	p.describe = func(p *pass) {
		commit := p.lat
		b, d := analyticBounds(c)
		p.add("sim_ops_per_s", p.throughput, "1/s", gen, fmt.Sprintf("wall; %.2f CPU-s over %.2f s; %.1f virtual s simulated", cpu, elapsed.Seconds(), c.Sim.Now().Sub(s.vstart).Seconds()))
		p.add("virt_commit_latency_ms_p50", commit.P50, "ms", commit.N, fmt.Sprintf("virtual; §8 bound d = 2π+nδ = %.1f ms", ms(d)))
		p.add("virt_commit_latency_ms_"+pctName(commit.TailQ), commit.Tail, "ms", commit.N, "virtual; under churn the tail is outage + recovery")
		if s.params.churn {
			p.add("virt_recovery_ms_p50", rec.P50, "ms", rec.N, fmt.Sprintf("virtual; repair → every cut-off node delivers past the repair-time order; §7 bound b+d = %.1f ms; %d fault cycles", ms(b+d), s.cycles))
			p.add("virt_recovery_ms_"+pctName(rec.TailQ), rec.Tail, "ms", rec.N, "virtual")
		}
		p.add("history_slowdown", slow, "ratio", 0, "ops/s in the last quarter of the run ÷ the first quarter")
		p.add("driver_self_frac", selfFrac, "ratio", 0, "share of the window spent outside Sim.RunFor (generator + bookkeeping)")
	}

	if s.traced {
		snap := s.reg.Snapshot()
		p.registry = snap
		ops := float64(gen)
		p.layers = registryLayers(snap, ops)
		applyWall := snap.Histograms["rsm.apply_batch_wall_ns"]
		for k, v := range map[string]float64{
			"wal_bytes_per_value": ratio(counter(snap, "wal.bytes"), ops),
			"replay_mb_per_s":     replayRate,
			"msgs_per_value":      ratio(counter(snap, "net.sent"), ops),
			"history_slowdown":    slow,
			"alloc_bytes_per_op":  ratio(float64(alloc1-alloc0), ops),
			"apply_ns_per_op":     ratio(float64(applyWall.MeanNS)*float64(applyWall.Count), counter(snap, "rsm.apply_ops")),
			"antichain_size_mean": float64(snap.Histograms["rsm.antichain_size"].MeanNS),
			"check_events_per_s":  checkRate,
			"submit_call_us":      ratio(submitUS, ops),
			"driver_self_frac":    selfFrac,
			"recovery_ms_p50":     rec.P50,
			"recovery_ms_tail":    rec.Tail,
		} {
			p.layers[k] = v
		}
		p.spans = s.spans()
		for name, v := range spanMedians(p.spans, true) {
			p.layers["span_"+name+"_ms"] = v
		}
	}
	return p, nil
}

// spans renders the sampled ops' four stages.
func (s *simSystem) spans() []span {
	var out []span
	v := func(t simTime) float64 { return ms(t.Sub(s.vstart)) }
	for o, ops := range s.ops {
		for _, op := range ops {
			if op.seq%traceEvery != 0 || !op.applied || op.seenAt < simN {
				continue
			}
			id := opID(o, op.seq)
			out = append(out,
				span{ID: id, Name: "submit", StartMS: op.subW, EndMS: op.subW + op.subCallUS/1000, VStart: v(op.subV), VEnd: v(op.subV)},
				span{ID: id, Name: "order", Parent: "submit", StartMS: op.subW, EndMS: op.orderW, VStart: v(op.subV), VEnd: v(op.orderV)},
				span{ID: id, Name: "fanout", Parent: "order", StartMS: op.orderW, EndMS: op.fanW, VStart: v(op.orderV), VEnd: v(op.fanV)},
				span{ID: id, Name: "apply", Parent: "order", StartMS: op.orderW, EndMS: op.appliedW, VStart: v(op.orderV), VEnd: v(op.appliedV)})
		}
	}
	return out
}

// verify checks everything the run produced: one total order (TOChecker
// over every delivery, equal digests), replica coherence, every replica
// equal to a reference model replayed in the delivered order, every atomic
// read returning the model's value at its position, and every submitted op
// applied at its origin — which, across amnesia restarts, is "no
// acknowledged write missing". It returns the checker's event rate and the
// WAL replay rate, both timed here because they run over this pass's own
// trace and image.
func (s *simSystem) verify() (checkRate, replayRate float64, err error) {
	c := s.c
	chk := newTOChecker()
	t0 := time.Now()
	for o, ops := range s.ops {
		for _, op := range ops {
			chk.Bcast(encodeOp(op.read, op.key, op.val, op.seq), procID(o))
		}
	}
	for p := 0; p < simN; p++ {
		for _, d := range c.Deliveries(procID(p)) {
			if err := chk.Brcv(d.Value, d.From, procID(p)); err != nil {
				return 0, 0, err
			}
		}
	}
	checkRate = float64(chk.Events()) / time.Since(t0).Seconds()
	if chk.OrderLen() != s.nOps {
		return 0, 0, fmt.Errorf("total order has %d values, %d were submitted", chk.OrderLen(), s.nOps)
	}
	for p := 0; p < simN; p++ {
		if s.digests[p] != s.digests[0] {
			return 0, 0, fmt.Errorf("node %d delivery digest %v differs from node 0's %v", p, s.digests[p], s.digests[0])
		}
		if n := len(c.Deliveries(procID(p))); n != s.nOps || s.count[p] != n {
			return 0, 0, fmt.Errorf("node %d delivered %d (hook saw %d), want %d", p, n, s.count[p], s.nOps)
		}
	}
	if err := s.mem.CheckCoherence(); err != nil {
		return 0, 0, err
	}
	model := map[string]string{}
	var seen [simN]int
	for _, d := range c.Deliveries(0) {
		o := int(d.From)
		op := s.ops[o][seen[o]]
		seen[o]++
		if !op.applied {
			return 0, 0, fmt.Errorf("op %s delivered everywhere but never acknowledged at its origin", opID(o, op.seq))
		}
		if op.read {
			if op.readGot != model[op.key] {
				return 0, 0, fmt.Errorf("atomic read %s of %q returned %q, the total order says %q", opID(o, op.seq), op.key, op.readGot, model[op.key])
			}
		} else {
			model[op.key] = op.val
		}
	}
	for p := 0; p < simN; p++ {
		if !reflect.DeepEqual(s.mem.Replica(procID(p)), model) {
			return 0, 0, fmt.Errorf("replica %d differs from the reference model", p)
		}
	}
	image := walImage(c, 0)
	t0 = time.Now()
	records, truncated := replayWAL(image)
	replayRate = float64(len(image)) / (1 << 20) / time.Since(t0).Seconds()
	if truncated != "" || records == 0 {
		return 0, 0, fmt.Errorf("node 0's WAL image does not replay cleanly: %d records, %q", records, truncated)
	}
	return checkRate, replayRate, nil
}

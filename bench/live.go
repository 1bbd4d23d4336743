package main

import (
	"fmt"
	stdnet "net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Live workloads: three in-process engines on loopback TCP with real WAL
// and trace files, driven through live.Client connections exactly as
// cmd/loadgen drives pgcsd. Two connections (to nodes 0 and 1) carry all
// load; each is one goroutine that both sends and consumes its delivery
// stream, so the whole generator is nproc = 2 goroutines.

const (
	liveN         = 3
	liveDelta     = 5 * time.Millisecond
	liveConns     = 2
	liveValueSize = 64
	// pacedRate is the open-loop offered load, split evenly over the
	// connections: about a fifth of what the cluster saturates at on a
	// 2-core host, i.e. normal load.
	pacedRate = 600
	// saturateWindow is each connection's closed-loop outstanding-value
	// budget. 2 × 128 keeps one of this host's two cores busy and stays
	// below the load at which a starved token times out and the cluster
	// falls into repeated view changes (README, "Limits"); it is also far
	// below pgcsd's max-pending 4096, so BUSY is not part of this workload.
	saturateWindow = 128
	drainTimeout   = 20 * time.Second
)

type liveParams struct {
	paced bool
}

type liveSystem struct {
	params  liveParams
	traced  bool
	dir     string
	lc      *liveCluster
	clients []*liveClient
	closed  bool
}

// freeAddrs binds n loopback listeners on port 0, records the addresses the
// kernel chose and releases them, so concurrent runs never collide on a
// fixed base port.
func freeAddrs(n int) ([]string, error) {
	var lns []stdnet.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

var bootSeq int

func bootLive(params liveParams) func(e *env, traced bool) (system, error) {
	return func(e *env, traced bool) (system, error) {
		bootSeq++
		s := &liveSystem{params: params, traced: traced, dir: filepath.Join(e.dir, "live"+itoa(bootSeq))}
		if err := os.MkdirAll(s.dir, 0o755); err != nil {
			return nil, err
		}
		addrs, err := freeAddrs(2 * liveN)
		if err != nil {
			return nil, err
		}
		s.lc, err = startLiveCluster(s.dir, e.seed, liveDelta, addrs[:liveN], addrs[liveN:])
		if err != nil {
			return nil, err
		}
		for i := 0; i < liveConns; i++ {
			c, err := dialLive(addrs[liveN+i], 10*time.Second)
			if err != nil {
				s.close()
				return nil, err
			}
			s.clients = append(s.clients, c)
		}
		// The probe: submitted on connection 0, seen on both load streams
		// and counted at the third node.
		if err := s.clients[0].Submit("probe"); err != nil {
			s.close()
			return nil, err
		}
		for _, c := range s.clients {
			select {
			case d, ok := <-c.Deliveries():
				if !ok || d.Value != "probe" {
					s.close()
					return nil, fmt.Errorf("probe: stream gave %q (open=%v)", d.Value, ok)
				}
			case <-time.After(drainTimeout):
				s.close()
				return nil, fmt.Errorf("probe not delivered within %v", drainTimeout)
			}
		}
		if err := s.waitDelivered(liveN-1, 1); err != nil {
			s.close()
			return nil, err
		}
		return s, nil
	}
}

// waitDelivered polls node's STATUS (two integers per reply, no history
// copy) until it has delivered want values.
func (s *liveSystem) waitDelivered(node int, want int64) error {
	c, err := dialLive(s.lc.cfg.Nodes[node].ClientAddr, 10*time.Second)
	if err != nil {
		return err
	}
	defer c.Close()
	deadline := time.Now().Add(drainTimeout)
	for {
		st, err := c.Status(5 * time.Second)
		if err != nil {
			return err
		}
		if st.Delivered >= want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("node %d delivered %d of %d within %v", node, st.Delivered, want, drainTimeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (s *liveSystem) close() {
	if s.closed {
		return
	}
	s.closed = true
	for _, c := range s.clients {
		c.Close()
	}
	if s.lc != nil {
		s.lc.close()
	}
	os.RemoveAll(s.dir)
}

// liveConn is one connection's generator-and-consumer state. Only its own
// goroutine touches it during the window.
type liveConn struct {
	id        int
	c         *liveClient
	due       []time.Time // per own value: when it was due (paced) or sent (saturate)
	latency   []float64   // ms, due → own delivery
	lateMS    []float64   // generator lateness (paced)
	submitUS  float64
	sent      int
	ownSeen   int
	totalSeen int
	digest    orderDigest
	lastSeen  time.Time
	err       error
}

// liveTrace is the cross-connection state of the sampled ops (traced pass
// only): when each was submitted, delivered on its own stream, and
// delivered on the other connection's stream.
type liveTrace struct {
	mu    sync.Mutex
	start time.Time
	ops   map[string]*liveTracedOp
}

type liveTracedOp struct {
	submit, submitEnd, own, other float64
}

func (t *liveTrace) at(id string) *liveTracedOp {
	op := t.ops[id]
	if op == nil {
		op = &liveTracedOp{}
		t.ops[id] = op
	}
	return op
}

func liveValue(conn, k int) string { return padValue("c"+itoa(conn)+"-"+itoa(k)+"-", liveValueSize) }

// parseLiveValue recovers (conn, k) from a value made by liveValue.
func parseLiveValue(v string) (conn, k int, ok bool) {
	if !strings.HasPrefix(v, "c") {
		return 0, 0, false
	}
	parts := strings.SplitN(v[1:], "-", 3)
	if len(parts) != 3 {
		return 0, 0, false
	}
	conn, err1 := strconv.Atoi(parts[0])
	k, err2 := strconv.Atoi(parts[1])
	return conn, k, err1 == nil && err2 == nil
}

// run is the connection's single goroutine: send when a value is due (open
// loop) or when the window has room (closed loop), and consume the
// delivery stream in between. It returns once the window is over and every
// value either connection submitted has come back, or the drain times out.
func (lc *liveConn) run(s *liveSystem, e *env, start time.Time, tr *liveTrace, shared *liveShared) {
	interval := time.Second * liveConns / pacedRate
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	sending := true
	var drainBy time.Time
	perConn := e.maxOps / liveConns
	send := func(due time.Time) {
		k := lc.sent
		v := liveValue(lc.id, k)
		lc.due = append(lc.due, due)
		t0 := time.Now()
		if err := lc.c.Submit(v); err != nil {
			lc.err = err
		}
		t1 := time.Now()
		lc.submitUS += float64(t1.Sub(t0)) / float64(time.Microsecond)
		lc.sent++
		shared.add(1, 0)
		if tr != nil && k%traceEvery == 0 {
			tr.mu.Lock()
			op := tr.at(opID(lc.id, k))
			op.submit, op.submitEnd = ms(t0.Sub(tr.start)), ms(t1.Sub(tr.start))
			tr.mu.Unlock()
		}
	}
	for lc.err == nil {
		now := time.Now()
		if sending && (e.maxOps > 0 && lc.sent >= perConn || e.maxOps == 0 && now.Sub(start).Seconds() >= e.seconds) {
			sending = false
			drainBy = now.Add(drainTimeout)
			shared.add(0, 1)
		}
		var wake <-chan time.Time
		if sending {
			if s.params.paced {
				due := start.Add(time.Duration(lc.sent) * interval)
				if !now.Before(due) {
					lc.lateMS = append(lc.lateMS, ms(now.Sub(due)))
					send(due)
					continue
				}
				timer.Reset(due.Sub(now))
				wake = timer.C
			} else if lc.sent-lc.ownSeen < saturateWindow {
				send(now)
				continue
			} else {
				timer.Reset(50 * time.Millisecond) // re-check the window's end
				wake = timer.C
			}
		} else {
			if sent, stopped := shared.load(); stopped == liveConns && lc.totalSeen >= sent || now.After(drainBy) {
				return
			}
			timer.Reset(50 * time.Millisecond)
			wake = timer.C
		}
		select {
		case d, ok := <-lc.c.Deliveries():
			if !ok {
				lc.err = fmt.Errorf("connection %d: delivery stream closed", lc.id)
				return
			}
			got := time.Now()
			lc.digest.add(int(d.From), d.Value)
			lc.totalSeen++
			lc.lastSeen = got
			conn, k, ok := parseLiveValue(d.Value)
			if !ok {
				lc.err = fmt.Errorf("connection %d: unexpected delivery %q", lc.id, d.Value)
				return
			}
			if conn == lc.id {
				if k != lc.ownSeen || int(d.From) != lc.id {
					lc.err = fmt.Errorf("connection %d: own value %d from node %d arrived at position %d", lc.id, k, d.From, lc.ownSeen)
					return
				}
				lc.ownSeen++
				lc.latency = append(lc.latency, ms(got.Sub(lc.due[k])))
			}
			if tr != nil && k%traceEvery == 0 {
				tr.mu.Lock()
				op := tr.at(opID(conn, k))
				if conn == lc.id {
					op.own = ms(got.Sub(tr.start))
				} else {
					op.other = ms(got.Sub(tr.start))
				}
				tr.mu.Unlock()
			}
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
		case <-wake:
		}
	}
}

// liveShared is what the two connection goroutines tell each other: how
// many values have been submitted in all and how many connections have
// stopped sending, so each knows when its own stream is complete.
type liveShared struct {
	mu            sync.Mutex
	sent, stopped int
}

func (sh *liveShared) add(sent, stopped int) {
	sh.mu.Lock()
	sh.sent += sent
	sh.stopped += stopped
	sh.mu.Unlock()
}

func (sh *liveShared) load() (sent, stopped int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.sent, sh.stopped
}

func (s *liveSystem) measure(e *env) (*pass, error) {
	defer s.close()
	cpu0 := cpuSeconds()
	alloc0 := totalAlloc()
	conns := make([]*liveConn, liveConns)
	shared := &liveShared{}
	for i := range conns {
		conns[i] = &liveConn{id: i, c: s.clients[i], digest: newOrderDigest()}
		conns[i].digest.add(0, "probe")
	}
	var tr *liveTrace
	start := time.Now()
	if s.traced {
		tr = &liveTrace{start: start, ops: map[string]*liveTracedOp{}}
	}
	var wg sync.WaitGroup
	for _, lc := range conns {
		wg.Add(1)
		go func(lc *liveConn) {
			defer wg.Done()
			lc.run(s, e, start, tr, shared)
		}(lc)
	}
	wg.Wait()
	total, end := 0, start
	for _, lc := range conns {
		if lc.err != nil {
			return nil, lc.err
		}
		total += lc.sent
		if lc.lastSeen.After(end) {
			end = lc.lastSeen
		}
	}
	// The third node carries no load connection; its delivered count comes
	// from STATUS, and its order is checked from its trace file below.
	if err := s.waitDelivered(liveN-1, int64(total+1)); err != nil {
		return nil, err
	}
	if t := time.Now(); conns[0].totalSeen < total || conns[1].totalSeen < total {
		end = t
	}
	elapsed := end.Sub(start)
	cpu := cpuSeconds() - cpu0
	alloc1 := totalAlloc()

	p := &pass{attempted: total, digest: conns[0].digest.String()}
	var busy int
	for _, lc := range conns {
		p.failed += lc.sent - lc.ownSeen // timed out in the drain
		p.latencyMS = append(p.latencyMS, lc.latency...)
	drained:
		for {
			select {
			case <-lc.c.Rejects():
				busy++
			default:
				break drained
			}
		}
	}
	p.heapMB = retainedHeapMB()
	var snaps []*snapshot
	for _, en := range s.lc.engines {
		snaps = append(snaps, en.Metrics())
	}
	walBytes := int64(0)
	for _, w := range s.lc.wals {
		if fi, err := os.Stat(w); err == nil {
			walBytes += fi.Size()
		}
	}
	traces := s.lc.traces
	for _, c := range s.clients {
		c.Close()
	}
	s.lc.close() // flushes the JSONL traces and closes the WAL files

	// Node 0's WAL file, replayed as a restarted daemon would replay it.
	image, err := os.ReadFile(s.lc.wals[0])
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	records, truncated := replayWAL(image)
	replayRate := float64(len(image)) / (1 << 20) / time.Since(t0).Seconds()
	if truncated != "" || records == 0 {
		return nil, fmt.Errorf("node 0's WAL file does not replay cleanly: %d records, %q", records, truncated)
	}

	// Correctness: merged TO conformance over the three trace files, every
	// node at the full count, the two observed streams byte-identical.
	orderLen, delivered, err := checkLiveTraces(traces)
	if err != nil {
		return nil, err
	}
	if p.failed == 0 {
		if orderLen != total+1 {
			return nil, fmt.Errorf("merged order has %d values, want %d", orderLen, total+1)
		}
		for i, n := range delivered {
			if n != total+1 {
				return nil, fmt.Errorf("node %d's trace has %d deliveries, want %d", i, n, total+1)
			}
		}
		if conns[0].digest != conns[1].digest {
			return nil, fmt.Errorf("connection digests differ: %v vs %v", conns[0].digest, conns[1].digest)
		}
	}

	p.throughput = float64(total-p.failed) / elapsed.Seconds()
	p.cpuMSPerOp = cpu * 1000 / float64(total)
	var late []float64
	for _, lc := range conns {
		late = append(late, lc.lateMS...)
	}
	lateP99 := 0.0
	if len(late) > 0 {
		lateP99 = percentile(summarize(late).Sorted, 0.99)
	}
	paced := s.params.paced
	p.describe = func(p *pass) {
		lat := p.lat
		if paced {
			p.add("commit_latency_ms_p50", lat.P50, "ms", lat.N, "wall; due → own delivery stream")
			p.add("commit_latency_ms_"+pctName(lat.TailQ), lat.Tail, "ms", lat.N, "wall")
			p.add("delivered_vps", p.throughput, "1/s", p.attempted, fmt.Sprintf("open loop, offered %d/s", pacedRate))
			p.add("gen_late_ms_p99", lateP99, "ms", len(late), "how late the generator sent, against the schedule")
		} else {
			p.add("throughput_vps", p.throughput, "1/s", p.attempted, fmt.Sprintf("wall; closed loop %d × %d outstanding; median of fresh-cluster epochs", liveConns, saturateWindow))
			p.add("closed_loop_latency_ms_p50", lat.P50, "ms", lat.N, "wall; send → own delivery stream")
			p.add("closed_loop_latency_ms_"+pctName(lat.TailQ), lat.Tail, "ms", lat.N, "wall")
		}
	}

	if s.traced {
		snap := mergeSnapshots(snaps)
		p.registry = snap
		ops := float64(total)
		var submitUS float64
		for _, lc := range conns {
			submitUS += lc.submitUS
		}
		p.layers = registryLayers(snap, ops)
		for k, v := range map[string]float64{
			"transport_msgs_per_write":  ratio(counter(snap, "transport.sent"), float64(snap.Histograms["transport.write_latency"].Count)),
			"transport_bytes_per_value": ratio(counter(snap, "transport.bytes"), ops),
			"transport_write_ms":        histMeanMS(snap, "transport.write_latency"),
			"wal_bytes_per_value":       ratio(float64(walBytes), ops),
			"replay_mb_per_s":           replayRate,
			"msgs_per_value":            ratio(counter(snap, "transport.sent"), ops),
			"alloc_bytes_per_op":        ratio(float64(alloc1-alloc0), ops),
			"gen_late_ms_p99":           lateP99,
			"busy_rejects":              float64(busy),
			"submit_call_us":            ratio(submitUS, ops),
		} {
			p.layers[k] = v
		}
		p.spans = tr.spans()
		for name, v := range spanMedians(p.spans, false) {
			p.layers["span_"+name+"_ms"] = v
		}
	}
	return p, nil
}

// spans renders the sampled live ops: submit (the Client.Submit call),
// order (submit → own stream) and fanout (own stream → the other
// connection's stream; the third node has no stream to observe).
func (t *liveTrace) spans() []span {
	var out []span
	for id, op := range t.ops {
		if op.own == 0 || op.other == 0 {
			continue
		}
		out = append(out,
			span{ID: id, Name: "submit", StartMS: op.submit, EndMS: op.submitEnd},
			span{ID: id, Name: "order", Parent: "submit", StartMS: op.submit, EndMS: op.own})
		if op.other >= op.own {
			out = append(out, span{ID: id, Name: "fanout", Parent: "order", StartMS: op.own, EndMS: op.other})
		}
	}
	return out
}

// mergeSnapshots adds the per-engine registries: counters sum, histograms
// combine by count-weighted mean (their bucketed percentiles are dropped —
// the benchmark never reports them).
func mergeSnapshots(snaps []*snapshot) *snapshot {
	out := &snapshot{Counters: map[string]int64{}, Gauges: map[string]int64{}, Histograms: map[string]histSummary{}}
	for _, s := range snaps {
		for k, v := range s.Counters {
			out.Counters[k] += v
		}
		for k, v := range s.Gauges {
			if v > out.Gauges[k] {
				out.Gauges[k] = v
			}
		}
		for k, h := range s.Histograms {
			m := out.Histograms[k]
			if n := m.Count + h.Count; n > 0 {
				m.MeanNS = (m.MeanNS*m.Count + h.MeanNS*h.Count) / n
				m.Count = n
			}
			if h.MaxNS > m.MaxNS {
				m.MaxNS = h.MaxNS
			}
			out.Histograms[k] = m
		}
	}
	return out
}

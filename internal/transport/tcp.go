package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	mrand "math/rand"
	stdnet "net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/types"
)

// Frame layout: a fixed 8-byte header — u32 payload length, u32 sender
// ProcID, both little-endian — followed by the payload: one or more
// [u32 sub-length | sub-payload] messages back to back, all from that
// sender, each sub-payload the bytes produced by the injected
// AppendEncode. The header carries the sender so connections need no
// handshake: any process may dial any other and start framing. A frame
// holds more than one message when they coalesce on the send side while the
// writer is busy (into the queue's tail entry), amortizing both the encode
// allocations and the write syscalls.
const frameHeader = 8

// maxWriteBatch bounds how many queued frames the writer goroutine drains
// per wake-up into one vectored write.
const maxWriteBatch = 32

const (
	// maxBatchMsgs bounds how many messages coalesce into one frame.
	maxBatchMsgs = 64
	// maxBatchBytes bounds a frame's payload size: a frame at or past the
	// bound stops accepting messages and the next message opens a fresh one.
	maxBatchBytes = 256 << 10
	// queueLimit bounds each peer's send queue in frames; when full the
	// OLDEST queued frame is dropped (the protocol tolerates loss — stale
	// tokens and probes are worthless, the newest traffic is not).
	queueLimit = 1024
	// dialMin and dialMax bound the exponential dial backoff; each wait is
	// jittered to ±50% so a cluster-wide restart does not produce
	// synchronized dial storms. A cluster's daemons boot moments apart: the
	// first redial of a peer that was not listening yet must not cost more
	// than a commit does.
	dialMin = time.Millisecond
	dialMax = 2 * time.Second
	// writeTimeout is the per-frame write deadline: a peer that stalls
	// longer forfeits the connection and the writer redials.
	writeTimeout = 5 * time.Second
	// drainTimeout bounds how long Close waits for queued frames to flush
	// over established connections.
	drainTimeout = 3 * time.Second
	// maxFrame bounds accepted inbound frames; an oversized header is
	// treated as a corrupt stream and the connection is dropped.
	maxFrame = 16 << 20
)

// TCPConfig configures a TCP transport endpoint (one per process). Every
// field but Obs and Logf is required.
type TCPConfig struct {
	// Self is the local processor; inbound frames are delivered to its
	// registered handler.
	Self types.ProcID
	// Addrs maps every processor of the universe to its listen address.
	// Self's entry is the local listen address.
	Addrs map[types.ProcID]string
	// Delta is the advertised δ the protocol timers are calibrated against.
	// On a real network it is a deployment choice, not a guarantee: pick it
	// comfortably above the observed p99 one-way latency (see DESIGN.md §11).
	Delta time.Duration
	// AppendEncode/Decode are the wire codec (internal/codec's AppendEncode
	// and Decode in every real deployment; injected to keep this package
	// below codec in the dependency order). AppendEncode appends a payload's
	// encoding to dst and returns the extended slice, so the send path
	// encodes straight into the forming batch buffer — one growing
	// allocation per batch instead of one per message. Encode errors panic —
	// an unencodable payload is a programming error, same contract as the
	// simulated net's transcode.
	AppendEncode func(dst []byte, v any) ([]byte, error)
	Decode       func([]byte) (any, error)
	// Submit serializes handler invocations: every inbound delivery is
	// wrapped in a closure and passed to Submit, which must run closures one
	// at a time (the daemon runs them under its event-loop mutex).
	Submit func(fn func())
	// Obs, when non-nil, receives the transport.* instruments. Nil disables
	// instrumentation at zero cost.
	Obs *obs.Registry
	// Logf, when non-nil, receives connection-lifecycle diagnostics.
	Logf func(format string, args ...any)
}

type tcpMetrics struct {
	sent, delivered  *obs.Counter
	bytes            *obs.Counter
	connects         *obs.Counter
	reconnects       *obs.Counter
	accepts          *obs.Counter
	dropOverflow     *obs.Counter // drop-oldest evictions, in frames
	dropOverflowMsgs *obs.Counter // messages lost to those evictions
	dropUnknown      *obs.Counter
	readErrors       *obs.Counter
	decodeErrors     *obs.Counter
	writeLatency     *obs.Histogram
	queueDepth       *obs.Gauge // high-water mark across all peer queues
	// queueDepthNow samples the current queued-message total across all
	// peers after every change — the decaying companion to queueDepth's
	// high-water Max, so a dashboard shows recovery, not just the worst
	// moment ever.
	queueDepthNow *obs.Gauge
}

// TCP is the real-socket Transport: one listener for inbound frames, one
// managed connection (dial + backoff + reconnect) per outbound peer.
type TCP struct {
	cfg  TCPConfig
	self types.ProcID
	m    tcpMetrics
	lim  limits

	mu       sync.Mutex
	handlers map[types.ProcID]func(Packet)
	peers    map[types.ProcID]*peer
	ln       stdnet.Listener
	inbound  map[stdnet.Conn]struct{}
	closed   bool
	paused   bool

	stop     chan struct{}
	writerWG sync.WaitGroup

	// qNow is the current queued-message total across all peer queues,
	// feeding the transport.queue_depth_now gauge.
	qNow atomic.Int64
}

// limits are the send-queue and dial bounds: the package constants in every
// build, lowered only by tests (export_test.go).
type limits struct {
	queue, batchMsgs int
	dialMin, dialMax time.Duration
}

// NewTCP creates the endpoint. Call Start to bind the listener and begin
// dialing peers.
func NewTCP(cfg TCPConfig) *TCP {
	if cfg.Delta <= 0 {
		panic("transport: non-positive delta")
	}
	if cfg.AppendEncode == nil || cfg.Decode == nil || cfg.Submit == nil {
		panic("transport: AppendEncode, Decode and Submit are required")
	}
	t := &TCP{
		cfg:      cfg,
		self:     cfg.Self,
		lim:      limits{queue: queueLimit, batchMsgs: maxBatchMsgs, dialMin: dialMin, dialMax: dialMax},
		handlers: make(map[types.ProcID]func(Packet)),
		peers:    make(map[types.ProcID]*peer),
		inbound:  make(map[stdnet.Conn]struct{}),
		stop:     make(chan struct{}),
		m: tcpMetrics{
			sent:             cfg.Obs.Counter("transport.sent"),
			delivered:        cfg.Obs.Counter("transport.delivered"),
			bytes:            cfg.Obs.Counter("transport.bytes"),
			connects:         cfg.Obs.Counter("transport.connects"),
			reconnects:       cfg.Obs.Counter("transport.reconnects"),
			accepts:          cfg.Obs.Counter("transport.accepts"),
			dropOverflow:     cfg.Obs.Counter("transport.drops_overflow"),
			dropOverflowMsgs: cfg.Obs.Counter("transport.drops_overflow_msgs"),
			dropUnknown:      cfg.Obs.Counter("transport.drops_unknown_peer"),
			readErrors:       cfg.Obs.Counter("transport.read_errors"),
			decodeErrors:     cfg.Obs.Counter("transport.decode_errors"),
			writeLatency:     cfg.Obs.Histogram("transport.write_latency"),
			queueDepth:       cfg.Obs.Gauge("transport.queue_depth"),
			queueDepthNow:    cfg.Obs.Gauge("transport.queue_depth_now"),
		},
	}
	return t
}

func (t *TCP) logf(format string, args ...any) {
	if t.cfg.Logf != nil {
		t.cfg.Logf(format, args...)
	}
}

// Start binds the listener and launches one writer goroutine per peer.
func (t *TCP) Start() error {
	addr, ok := t.cfg.Addrs[t.self]
	if !ok {
		return fmt.Errorf("transport: no address for self %v", t.self)
	}
	ln, err := stdnet.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	t.mu.Lock()
	t.ln = ln
	for id, a := range t.cfg.Addrs {
		if id == t.self {
			continue
		}
		p := newPeer(t, id, a)
		t.peers[id] = p
		t.writerWG.Add(1)
		go p.run()
	}
	t.mu.Unlock()
	go t.acceptLoop(ln)
	return nil
}

// Addr returns the bound listen address (useful with ":0" configs).
func (t *TCP) Addr() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ln == nil {
		return ""
	}
	return t.ln.Addr().String()
}

// Register installs the delivery handler for local processor p.
func (t *TCP) Register(p types.ProcID, h func(Packet)) {
	t.mu.Lock()
	t.handlers[p] = h
	t.mu.Unlock()
}

// Delta returns the advertised δ.
func (t *TCP) Delta() time.Duration { return t.cfg.Delta }

// Send encodes and transmits payload from→to. A self-send loops back
// locally, still through an encode/decode round trip so no pointer crosses
// the hop. Outbound messages coalesce into the peer queue's tail batch
// frame while the writer is busy (up to maxBatchMsgs/maxBatchBytes), so a
// burst leaves in a handful of vectored writes instead of one syscall per
// message.
func (t *TCP) Send(from, to types.ProcID, payload any) {
	t.m.sent.Inc()
	if to == t.self {
		b, err := t.cfg.AppendEncode(nil, payload)
		if err != nil {
			panic(fmt.Sprintf("transport: encode %T: %v", payload, err))
		}
		t.m.bytes.Add(int64(len(b)))
		v, err := t.cfg.Decode(b)
		if err != nil {
			panic(fmt.Sprintf("transport: loopback decode %T: %v", payload, err))
		}
		t.deliver(Packet{From: from, To: to, Payload: v})
		return
	}
	t.mu.Lock()
	p := t.peers[to]
	t.mu.Unlock()
	if p == nil {
		t.m.dropUnknown.Inc()
		return
	}
	res, err := p.q.push(from, payload, t.cfg.AppendEncode)
	if err != nil {
		panic(fmt.Sprintf("transport: encode %T: %v", payload, err))
	}
	t.m.bytes.Add(int64(res.bytes))
	if res.evictedMsgs > 0 {
		t.m.dropOverflow.Inc()
		t.m.dropOverflowMsgs.Add(int64(res.evictedMsgs))
	}
	if res.queued {
		t.qNow.Add(int64(1 - res.evictedMsgs))
		t.m.queueDepth.Max(int64(res.depth))
		t.m.queueDepthNow.Set(t.qNow.Load())
	}
}

// Broadcast sends payload from→each member of dst except from itself.
func (t *TCP) Broadcast(from types.ProcID, dst types.ProcSet, payload any) {
	for _, to := range dst.Members() {
		if to != from {
			t.Send(from, to, payload)
		}
	}
}

// deliver hands a packet to the registered handler through Submit.
func (t *TCP) deliver(pkt Packet) {
	t.mu.Lock()
	h := t.handlers[pkt.To]
	t.mu.Unlock()
	if h == nil {
		return
	}
	t.m.delivered.Inc()
	t.cfg.Submit(func() { h(pkt) })
}

// closing reports whether Close has begun.
func (t *TCP) closing() bool {
	select {
	case <-t.stop:
		return true
	default:
		return false
	}
}

// Close shuts the transport down: the listener closes, queued frames drain
// over already-established connections for up to drainTimeout, then every
// connection is torn down. Idempotent.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	close(t.stop)
	ln := t.ln
	t.ln = nil
	peers := make([]*peer, 0, len(t.peers))
	for _, p := range t.peers {
		peers = append(peers, p)
	}
	conns := make([]stdnet.Conn, 0, len(t.inbound))
	for c := range t.inbound {
		conns = append(conns, c)
	}
	t.mu.Unlock()

	if ln != nil {
		ln.Close()
	}
	for _, p := range peers {
		p.q.close()
	}
	done := make(chan struct{})
	go func() {
		t.writerWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(drainTimeout):
		t.logf("transport: drain timeout, forcing close")
	}
	for _, p := range peers {
		p.closeConn()
	}
	for _, c := range conns {
		c.Close()
	}
	return nil
}

// PauseListener severs every inbound link: the listener closes and all
// accepted connections are dropped, so no frame reaches this processor
// until ResumeListener. This is the live-fault realization of turning every
// channel *into* this processor bad (internal/liverun maps the failures
// vocabulary onto it).
func (t *TCP) PauseListener() {
	t.mu.Lock()
	if t.paused || t.closed {
		t.mu.Unlock()
		return
	}
	t.paused = true
	ln := t.ln
	t.ln = nil
	conns := make([]stdnet.Conn, 0, len(t.inbound))
	for c := range t.inbound {
		conns = append(conns, c)
	}
	t.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
}

// ResumeListener re-binds the listener after PauseListener; peers
// reconnect through their ordinary backoff machinery.
func (t *TCP) ResumeListener() error {
	t.mu.Lock()
	if !t.paused || t.closed {
		t.mu.Unlock()
		return nil
	}
	t.paused = false
	t.mu.Unlock()
	ln, err := stdnet.Listen("tcp", t.cfg.Addrs[t.self])
	if err != nil {
		return fmt.Errorf("transport: relisten: %w", err)
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		ln.Close()
		return nil
	}
	t.ln = ln
	t.mu.Unlock()
	go t.acceptLoop(ln)
	return nil
}

func (t *TCP) acceptLoop(ln stdnet.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed (shutdown or pause)
		}
		t.mu.Lock()
		if t.closed || t.paused {
			t.mu.Unlock()
			conn.Close()
			continue
		}
		t.inbound[conn] = struct{}{}
		t.mu.Unlock()
		t.m.accepts.Inc()
		go t.readLoop(conn)
	}
}

// readLoop parses frames off one inbound connection. A partial frame at
// connection close — the header or payload cut mid-read — is a read error:
// the fragment is discarded, never delivered, and the connection ends. A
// frame that parses but fails to decode is dropped alone (the stream
// framing is still sound, so later frames remain usable).
func (t *TCP) readLoop(conn stdnet.Conn) {
	defer func() {
		conn.Close()
		t.mu.Lock()
		delete(t.inbound, conn)
		t.mu.Unlock()
	}()
	var hdr [frameHeader]byte
	for {
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			if err != io.EOF {
				t.m.readErrors.Inc()
			}
			return
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		from := types.ProcID(int32(binary.LittleEndian.Uint32(hdr[4:8])))
		if n > maxFrame {
			t.m.readErrors.Inc()
			t.logf("transport: oversized frame (%d bytes) from %v, dropping connection", n, from)
			return
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(conn, buf); err != nil {
			t.m.readErrors.Inc()
			return
		}
		// The payload is a sequence of [u32 len | payload] messages. A
		// malformed sub-header means the framing itself is unsound, so the
		// connection is dropped like any other corrupt stream.
		for off := 0; off < len(buf); {
			if len(buf)-off < 4 {
				t.m.readErrors.Inc()
				t.logf("transport: torn batch sub-header from %v, dropping connection", from)
				return
			}
			ln := int(binary.LittleEndian.Uint32(buf[off : off+4]))
			if ln <= 0 || ln > len(buf)-off-4 {
				t.m.readErrors.Inc()
				t.logf("transport: bad batch sub-length %d from %v, dropping connection", ln, from)
				return
			}
			t.decodeAndDeliver(from, buf[off+4:off+4+ln])
			off += 4 + ln
		}
	}
}

// decodeAndDeliver decodes one message payload and hands it to the local
// handler; an undecodable payload is dropped alone (the stream framing is
// still sound, so later messages remain usable).
func (t *TCP) decodeAndDeliver(from types.ProcID, b []byte) {
	v, err := t.cfg.Decode(b)
	if err != nil {
		t.m.decodeErrors.Inc()
		t.logf("transport: undecodable frame from %v: %v", from, err)
		return
	}
	t.deliver(Packet{From: from, To: t.self, Payload: v})
}

// --- outbound peer ---------------------------------------------------------

// peer manages the single outbound connection to one remote processor: a
// bounded drop-oldest frame queue and a writer goroutine that dials with
// jittered exponential backoff and redials on any write failure.
type peer struct {
	t    *TCP
	id   types.ProcID
	addr string
	q    *sendq

	mu        sync.Mutex
	conn      stdnet.Conn
	everConn  bool
	connected bool
}

func newPeer(t *TCP, id types.ProcID, addr string) *peer {
	return &peer{t: t, id: id, addr: addr, q: newSendq(t.lim.queue, t.lim.batchMsgs)}
}

func (p *peer) setConn(c stdnet.Conn) {
	p.mu.Lock()
	p.conn = c
	p.connected = c != nil
	if c != nil {
		p.everConn = true
	}
	p.mu.Unlock()
}

// closeConn force-closes the current connection (shutdown path; the writer
// goroutine owns reconnection).
func (p *peer) closeConn() {
	p.mu.Lock()
	c := p.conn
	p.conn = nil
	p.connected = false
	p.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// run is the writer goroutine: pop everything queued (up to maxWriteBatch
// frames), ensure a connection, flush the lot in one vectored write. After
// Close begins it drains whatever remains over an already-established
// connection but never dials anew.
func (p *peer) run() {
	defer p.t.writerWG.Done()
	defer p.closeConn()
	for {
		frames, msgs, ok := p.q.popBatch(maxWriteBatch)
		if !ok {
			return
		}
		p.t.qNow.Add(-int64(msgs))
		p.t.m.queueDepthNow.Set(p.t.qNow.Load())
		p.write(frames)
	}
}

// write flushes a run of frames, redialing as needed. Returns once the
// frames are written or abandoned (transport closing with no usable
// connection). On a write error the WHOLE run is retried from the original
// frame slices on a fresh connection: a partial vectored write may have
// cut a frame mid-stream, and the new connection must start at a frame
// boundary — receivers tolerate the duplicated frames exactly as they
// tolerate any retransmission.
func (p *peer) write(frames [][]byte) {
	for {
		p.mu.Lock()
		conn := p.conn
		p.mu.Unlock()
		if conn == nil {
			if p.t.closing() {
				return // drain phase: no new dials
			}
			conn = p.dial()
			if conn == nil {
				return // transport closed while dialing
			}
			p.setConn(conn)
		}
		start := time.Now()
		conn.SetWriteDeadline(start.Add(writeTimeout))
		// Buffers consumes its slice headers as it writes, so hand it a
		// copy and keep frames intact for a retry.
		bufs := stdnet.Buffers(append([][]byte(nil), frames...))
		if _, err := bufs.WriteTo(conn); err == nil {
			p.t.m.writeLatency.Record(time.Since(start))
			return
		}
		p.closeConn()
		if p.t.closing() {
			return
		}
	}
}

// dial connects to the peer, backing off exponentially with ±50% jitter
// between attempts. Returns nil only when the transport is closing.
func (p *peer) dial() stdnet.Conn {
	backoff := p.t.lim.dialMin
	for {
		if p.t.closing() {
			return nil
		}
		conn, err := stdnet.DialTimeout("tcp", p.addr, p.t.lim.dialMax)
		if err == nil {
			p.t.m.connects.Inc()
			p.mu.Lock()
			again := p.everConn
			p.mu.Unlock()
			if again {
				p.t.m.reconnects.Inc()
				p.t.logf("transport: reconnected to %v (%s)", p.id, p.addr)
			}
			return conn
		}
		wait := backoff/2 + time.Duration(mrand.Int63n(int64(backoff)+1))
		select {
		case <-p.t.stop:
			return nil
		case <-time.After(wait):
		}
		backoff *= 2
		if backoff > p.t.lim.dialMax {
			backoff = p.t.lim.dialMax
		}
	}
}

// --- bounded drop-oldest send queue ----------------------------------------

// sendEntry is one queued frame: the full wire bytes (8-byte header,
// finalized at pop time, then the payload) and the number of messages the
// frame carries. The entry at the tail keeps growing as messages coalesce
// into it; entries are only mutated or handed to the writer under the queue
// mutex, so membership in buf is ownership.
type sendEntry struct {
	from types.ProcID
	buf  []byte
	msgs int
}

// finalize stamps the header now that the entry has stopped growing.
func (e *sendEntry) finalize() []byte {
	binary.LittleEndian.PutUint32(e.buf[0:4], uint32(len(e.buf)-frameHeader))
	binary.LittleEndian.PutUint32(e.buf[4:8], uint32(int32(e.from)))
	return e.buf
}

// pushResult reports what one push did, for the caller's accounting.
type pushResult struct {
	depth       int  // resulting queue depth, in messages
	bytes       int  // payload bytes appended (0 when discarded)
	evictedMsgs int  // messages lost to a drop-oldest eviction
	queued      bool // false when the queue is closed (message discarded)
}

// sendq is a bounded FIFO of encoded frames. The bound is in frames; when
// full, push evicts the OLDEST frame: under sustained overload the
// receiver sees the freshest window of traffic, which is what a
// timeout-driven protocol can actually use (an ancient token only triggers
// the stale-view path anyway).
type sendq struct {
	mu      sync.Mutex
	cond    *sync.Cond
	buf     []sendEntry
	msgs    int // total messages across buf
	limit   int // frames
	maxMsgs int // messages per frame
	closed  bool
}

func newSendq(limit, maxMsgs int) *sendq {
	q := &sendq{limit: limit, maxMsgs: maxMsgs}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push encodes payload (via enc, appending to the chosen buffer) into the
// queue: into the tail entry when it has room — same sender, under maxMsgs
// messages and maxBatchBytes payload — otherwise as a new frame, evicting the
// oldest frame if the queue is full. Encoding under the mutex is what makes
// the tail append safe and keeps allocation amortized: one growing buffer
// per frame, not one per message. Pushing after close discards the message
// (not an overflow: the transport is shutting down).
func (q *sendq) push(from types.ProcID, payload any, enc func([]byte, any) ([]byte, error)) (pushResult, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return pushResult{depth: q.msgs}, nil
	}
	var fresh sendEntry
	e := &fresh
	if n := len(q.buf); n > 0 && q.buf[n-1].from == from && q.buf[n-1].msgs < q.maxMsgs && len(q.buf[n-1].buf)-frameHeader < maxBatchBytes {
		e = &q.buf[n-1]
	} else {
		fresh = sendEntry{from: from, buf: make([]byte, frameHeader, frameHeader+64)}
	}
	off := len(e.buf)
	grown, err := enc(append(e.buf, 0, 0, 0, 0), payload)
	if err != nil {
		return pushResult{}, err
	}
	payloadLen := len(grown) - off - 4
	binary.LittleEndian.PutUint32(grown[off:off+4], uint32(payloadLen))
	e.buf = grown
	e.msgs++
	evicted := 0
	if e == &fresh {
		if len(q.buf) >= q.limit {
			evicted = q.buf[0].msgs
			q.msgs -= evicted
			copy(q.buf, q.buf[1:])
			q.buf[len(q.buf)-1] = fresh
		} else {
			q.buf = append(q.buf, fresh)
		}
	}
	q.msgs++
	q.cond.Signal()
	return pushResult{depth: q.msgs, bytes: payloadLen, evictedMsgs: evicted, queued: true}, nil
}

// popBatch blocks until at least one frame is available or the queue is
// closed AND empty, then removes up to max frames, finalizes their headers
// (they stop growing the moment they leave buf), and returns them with
// their total message count. After close, remaining frames still drain in
// order.
func (q *sendq) popBatch(max int) ([][]byte, int, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.buf) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.buf) == 0 {
		return nil, 0, false
	}
	n := len(q.buf)
	if n > max {
		n = max
	}
	frames := make([][]byte, 0, n)
	msgs := 0
	for i := 0; i < n; i++ {
		frames = append(frames, q.buf[i].finalize())
		msgs += q.buf[i].msgs
		q.buf[i] = sendEntry{} // release the buffer once written
	}
	q.buf = q.buf[n:]
	q.msgs -= msgs
	return frames, msgs, true
}

// depth returns the current queue length in messages.
func (q *sendq) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.msgs
}

func (q *sendq) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

var _ Transport = (*TCP)(nil)

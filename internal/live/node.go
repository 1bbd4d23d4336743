package live

import (
	"bufio"
	"encoding/json"
	"fmt"
	stdnet "net"
	"os"
	"sync"
	"time"

	"repro/internal/codec"
	"repro/internal/obs"
	"repro/internal/props"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/transport"
	"repro/internal/types"
)

// EngineOptions configures one daemon engine (one processor's stack).
type EngineOptions struct {
	Config *Config
	Self   types.ProcID
	// WALPath is the node's write-ahead-log file. Read at boot (a
	// non-empty file routes the boot through the recovery path) and
	// appended to for every newly durable record.
	WALPath string
	// TracePath is this incarnation's JSONL trace file. The orchestrator
	// names it per restart (node<i>.r<k>.jsonl) so a SIGKILL can tear at
	// most the final line of the final file.
	TracePath string
	// MetricsPath, when non-empty, receives a JSON metrics snapshot on
	// Close.
	MetricsPath string
	// CheckpointBytes arms WAL snapshot/compaction: every so many bytes
	// of log growth the node appends a checkpoint record and the WAL
	// file's prefix before the previous checkpoint is discarded, so a
	// daemon killed hours into a soak replays the last checkpoint plus a
	// bounded suffix instead of its whole history. 0 disables.
	CheckpointBytes int
	// MaxPending bounds the node's accepted-but-undelivered submission
	// backlog; a submission past the bound is answered "BUSY <value>" on
	// the line protocol instead of accepted, so a stalled (no-primary)
	// daemon degrades by pushing back rather than buffering without
	// limit. 0 disables.
	MaxPending int
	// Tick is the pacer's period (default 2ms wall time). The engine is
	// event-driven — every inbound packet and client submission runs the
	// simulator up to the wall clock before it returns — so the tick only
	// bounds how late a protocol timer (token spacing, loss detection,
	// probes) fires on an otherwise quiet node, and how long buffered
	// diagnostic trace lines wait for their flush.
	Tick time.Duration
	// Logf logs progress (default: silent).
	Logf func(string, ...any)
}

// Engine is a running daemon: one stack.Node paced against the wall
// clock, a TCP transport to its peers, and a client/control listener.
//
// Locking: everything that touches the simulator — the pacer, inbound
// transport deliveries, client submissions — goes through submit and so
// runs under mu: protocol code executes exactly as single-threaded as it
// does in simulation.
type Engine struct {
	mu   sync.Mutex
	sim  *sim.Sim
	node *stack.Node
	tr   *transport.TCP
	reg  *obs.Registry
	opts EngineOptions

	origin time.Time // wall instant of sim time zero

	walFile   *walMirror
	traceFile *os.File
	traceW    *bufio.Writer

	clientLn stdnet.Listener
	conns    map[*clientConn]struct{}

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
	// Stopped closes when the engine has fully shut down (STOP command or
	// Close): the daemon main blocks on it.
	Stopped chan struct{}
}

// clientConn is one client/control connection; deliveries fan out to its
// outbox, drained by a dedicated writer goroutine so a slow client never
// stalls the pacer.
type clientConn struct {
	conn stdnet.Conn
	mu   sync.Mutex
	box  []string
	cond *sync.Cond
	dead bool
}

func (cc *clientConn) push(line string) {
	cc.mu.Lock()
	cc.box = append(cc.box, line)
	cc.cond.Signal()
	cc.mu.Unlock()
}

func (cc *clientConn) kill() {
	cc.mu.Lock()
	cc.dead = true
	cc.cond.Signal()
	cc.mu.Unlock()
	cc.conn.Close()
}

func (cc *clientConn) writeLoop() {
	bw := bufio.NewWriter(cc.conn)
	for {
		cc.mu.Lock()
		for len(cc.box) == 0 && !cc.dead {
			cc.cond.Wait()
		}
		if cc.dead && len(cc.box) == 0 {
			cc.mu.Unlock()
			return
		}
		batch := cc.box
		cc.box = nil
		cc.mu.Unlock()
		for _, line := range batch {
			bw.WriteString(line)
			bw.WriteByte('\n')
		}
		if bw.Flush() != nil {
			return
		}
	}
}

// StartEngine boots the engine: WAL replayed (if present), transport and
// listeners bound, pacer running. The returned engine is live; call Close
// (or send STOP on the control connection) to shut down.
func StartEngine(opts EngineOptions) (*Engine, error) {
	if opts.Tick <= 0 {
		opts.Tick = 2 * time.Millisecond
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	nc, ok := opts.Config.Node(opts.Self)
	if !ok {
		return nil, fmt.Errorf("live: node %v not in config", opts.Self)
	}

	e := &Engine{
		sim:     sim.New(opts.Config.Seed + int64(opts.Self)),
		reg:     obs.New(),
		opts:    opts,
		conns:   make(map[*clientConn]struct{}),
		stop:    make(chan struct{}),
		Stopped: make(chan struct{}),
	}

	// WAL: prior contents (torn tail physically discarded) route the boot
	// through recovery; the mirror appends every newly durable byte and
	// rewrites the file when compaction discards the prefix.
	_, walFile, err := openWALMirror(opts.WALPath)
	if err != nil {
		return nil, fmt.Errorf("live: open WAL: %w", err)
	}
	e.walFile = walFile
	// The node boots from the replay; the engine's mirror need not keep it.
	boot := walFile.replay
	walFile.replay = nil

	e.traceFile, err = os.Create(opts.TracePath)
	if err != nil {
		e.walFile.Close()
		return nil, fmt.Errorf("live: create trace: %w", err)
	}
	e.traceW = bufio.NewWriter(e.traceFile)

	e.tr = transport.NewTCP(transport.TCPConfig{
		Self:         opts.Self,
		Addrs:        opts.Config.Addrs(),
		Delta:        opts.Config.Delta(),
		AppendEncode: codec.AppendEncode,
		Decode:       codec.Decode,
		Submit:       e.submit,
		Obs:          e.reg,
		Logf:         opts.Logf,
	})
	if err := e.tr.Start(); err != nil {
		e.walFile.Close()
		e.traceFile.Close()
		return nil, err
	}

	// The trace log streams to disk as it grows; a torn final line after
	// SIGKILL is tolerated by the merge reader. TO events flush
	// immediately: a bcast/brcv line follows its WAL record's durability,
	// and a restarted node resumes after its durable delivery prefix — if
	// a kill could lose a whole buffer of delivery lines, the merged
	// per-node stream would show a gap the conformance checker (rightly)
	// rejects. VS events are diagnostic only and stay buffered.
	lg := &props.Log{
		Sink: func(ev props.Event) {
			props.AppendEventJSONL(e.traceW, ev)
			if ev.Kind == props.TOBcast || ev.Kind == props.TOBrcv {
				e.traceW.Flush()
			}
		},
		InitialSink: func(p types.ProcID, v types.View) { props.AppendInitialJSONL(e.traceW, p, v) },
	}

	e.mu.Lock()
	// Sim time zero. Set before the node registers with the transport: the
	// first inbound packet already runs the simulator up to the wall clock.
	e.origin = time.Now()
	e.node = stack.NewLiveNode(stack.LiveOptions{
		Self:             opts.Self,
		Universe:         opts.Config.Universe(),
		P0:               opts.Config.P0Set(),
		Delta:            opts.Config.Delta(),
		Sim:              e.sim,
		Transport:        e.tr,
		WALReplay:        boot,
		WALMirror:        e.walFile,
		CheckpointBytes:  opts.CheckpointBytes,
		MaxPendingBcasts: opts.MaxPending,
		Log:              lg,
		Obs:              e.reg,
		OnDeliver:        e.onDeliver,
	})
	e.mu.Unlock()
	if n := boot.TruncatedAt; n > 0 {
		opts.Logf("node %v: recovered from %d WAL bytes", opts.Self, n)
	}

	e.clientLn, err = stdnet.Listen("tcp", nc.ClientAddr)
	if err != nil {
		e.tr.Close()
		e.walFile.Close()
		e.traceFile.Close()
		return nil, fmt.Errorf("live: client listen: %w", err)
	}

	e.wg.Add(2)
	go e.pace()
	go e.acceptClients()
	return e, nil
}

// submit is the engine's one way into the simulator: it runs fn under the
// engine lock — the transport's delivery serialization hook, and the client
// commands' — and then catches the simulator up, so what fn made ready
// (zero-latency WAL completions, label/confirm/release, token forwarding)
// happens in the same critical section instead of waiting for the pacer.
// After Close it does nothing.
func (e *Engine) submit(fn func()) {
	e.mu.Lock()
	defer e.mu.Unlock()
	select {
	case <-e.stop:
		return
	default:
	}
	fn()
	e.catchUp()
}

// catchUp runs the simulator up to the wall clock: virtual time equals the
// wall time elapsed since boot however irregularly it is called. Caller
// holds mu.
func (e *Engine) catchUp() {
	target := sim.Time(time.Since(e.origin))
	if target < e.sim.Now() {
		target = e.sim.Now() // still fire what was scheduled for this instant
	}
	if err := e.sim.Run(target); err != nil {
		e.opts.Logf("node %v: sim error: %v", e.opts.Self, err)
		go e.Close()
	}
}

// pace is the timer fallback: with no packet or submission to drive the
// simulator, each tick catches it up so protocol timers still fire on
// time. It also flushes the trace lines buffered since the last tick.
func (e *Engine) pace() {
	defer e.wg.Done()
	ticker := time.NewTicker(e.opts.Tick)
	defer ticker.Stop()
	for {
		select {
		case <-e.stop:
			return
		case <-ticker.C:
			e.submit(func() { e.traceW.Flush() })
		}
	}
}

// onDeliver streams each local TO delivery to every client connection.
// Runs under mu (from the pacer or a submit).
func (e *Engine) onDeliver(d stack.Delivery) {
	line := fmt.Sprintf("D %d %s", int(d.From), string(d.Value))
	for cc := range e.conns {
		cc.push(line)
	}
}

func (e *Engine) acceptClients() {
	defer e.wg.Done()
	for {
		conn, err := e.clientLn.Accept()
		if err != nil {
			return // listener closed: shutting down
		}
		cc := &clientConn{conn: conn}
		cc.cond = sync.NewCond(&cc.mu)
		e.mu.Lock()
		e.conns[cc] = struct{}{}
		e.mu.Unlock()
		go cc.writeLoop()
		e.wg.Add(1)
		go e.serveClient(cc)
	}
}

// serveClient handles the line protocol: S <value> submits a broadcast
// (answered "BUSY <value>" when the backpressure bound rejects it),
// STATUS reports "ST <OK|STALLED> <pending> <delivered>" — STALLED means
// the node is not in an established primary component, so submissions
// queue without delivery — PING/PONG probes readiness, LPAUSE/LRESUME
// sever and restore the peer listener (the injector's channel fault),
// METRICS returns a one-line JSON snapshot, STOP shuts the daemon down.
func (e *Engine) serveClient(cc *clientConn) {
	defer e.wg.Done()
	defer func() {
		e.mu.Lock()
		delete(e.conns, cc)
		e.mu.Unlock()
		cc.kill()
	}()
	sc := bufio.NewScanner(cc.conn)
	sc.Buffer(nil, 1<<20) // bufio's default size, grown on demand
	for sc.Scan() {
		cmd, rest := cutSpace(sc.Bytes())
		switch string(cmd) {
		case "S":
			v := types.Value(rest) // the value alone is copied: the node keeps it
			accepted := true       // a stopping engine answers nothing
			e.submit(func() { accepted = e.node.Bcast(v) })
			if !accepted {
				cc.push("BUSY " + string(v))
			}
		case "STATUS":
			e.mu.Lock()
			stalled := e.node.Stalled()
			pending := e.node.PendingBcasts()
			delivered := e.node.DeliveredCount()
			e.mu.Unlock()
			state := "OK"
			if stalled {
				state = "STALLED"
			}
			cc.push(fmt.Sprintf("ST %s %d %d", state, pending, delivered))
		case "PING":
			cc.push("PONG")
		case "LPAUSE":
			e.tr.PauseListener()
			cc.push("OK")
		case "LRESUME":
			if err := e.tr.ResumeListener(); err != nil {
				cc.push("ERR " + err.Error())
			} else {
				cc.push("OK")
			}
		case "METRICS":
			b, err := json.Marshal(e.reg.Snapshot())
			if err != nil {
				cc.push("ERR " + err.Error())
			} else {
				cc.push("M " + string(b))
			}
		case "STOP":
			cc.push("OK")
			go e.Close()
			return
		default:
			cc.push("ERR unknown command " + string(cmd))
		}
	}
}

// Close shuts the engine down: pacer stopped, transport drained, trace
// flushed, metrics written. Idempotent.
func (e *Engine) Close() error {
	e.stopOnce.Do(func() {
		close(e.stop)
		e.clientLn.Close()
		e.mu.Lock()
		for cc := range e.conns {
			cc.kill()
		}
		e.mu.Unlock()
		e.tr.Close() // drains queued frames to reachable peers

		e.mu.Lock()
		e.traceW.Flush()
		e.traceFile.Close()
		e.walFile.Close()
		if e.opts.MetricsPath != "" {
			if b, err := json.MarshalIndent(e.reg.Snapshot(), "", "  "); err == nil {
				os.WriteFile(e.opts.MetricsPath, append(b, '\n'), 0o644)
			}
		}
		e.mu.Unlock()
		e.wg.Wait()
		close(e.Stopped)
	})
	return nil
}

// Bcast submits a value at this node and reports whether the node
// accepted it (stack.Node.Bcast); the line protocol's S command answers a
// rejection with BUSY.
func (e *Engine) Bcast(v types.Value) (accepted bool) {
	e.submit(func() { accepted = e.node.Bcast(v) })
	return accepted
}

// ClientAddr returns the bound client/control address.
func (e *Engine) ClientAddr() string { return e.clientLn.Addr().String() }

// Metrics snapshots the engine's registry.
func (e *Engine) Metrics() *obs.Snapshot { return e.reg.Snapshot() }

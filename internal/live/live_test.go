package live

import (
	"fmt"
	stdnet "net"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/props"
	"repro/internal/types"
)

// nextTestPort is where testConfig looks for its next port block. The
// blocks sit below the kernel's ephemeral range (like liverun's 23600) and
// are never handed out twice in one process: a port probed on 127.0.0.1:0
// and released can become the source port of a peer's dial before the
// engine binds it, which failed boots with EADDRINUSE.
var nextTestPort = 24000

func testConfig(t *testing.T, n int) *Config {
	t.Helper()
	base := nextTestPort
	for !portsFree(base, 2*n) {
		if base += 2 * n; base >= nextTestPort+64*2*n {
			t.Fatalf("no free 2x%d-port block above %d", n, nextTestPort)
		}
	}
	nextTestPort = base + 2*n
	cfg := &Config{DeltaMS: 5, Seed: 7}
	for i := 0; i < n; i++ {
		cfg.Nodes = append(cfg.Nodes, NodeConfig{
			ID:         i,
			Addr:       fmt.Sprintf("127.0.0.1:%d", base+2*i),
			ClientAddr: fmt.Sprintf("127.0.0.1:%d", base+2*i+1),
		})
	}
	return cfg
}

// portsFree reports whether every port in [base, base+count) is bindable
// right now.
func portsFree(base, count int) bool {
	for p := base; p < base+count; p++ {
		ln, err := stdnet.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", p))
		if err != nil {
			return false
		}
		ln.Close()
	}
	return true
}

func startTestEngine(t *testing.T, cfg *Config, id int, run int) *Engine {
	t.Helper()
	dir := t.TempDir()
	e, err := StartEngine(EngineOptions{
		Config:    cfg,
		Self:      types.ProcID(id),
		WALPath:   filepath.Join(dir, "wal"),
		TracePath: filepath.Join(dir, fmt.Sprintf("trace.r%d.jsonl", run)),
		Tick:      time.Millisecond,
		Logf:      t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// deliveredCount is the engine's delivered count (the STATUS figure).
func (e *Engine) deliveredCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.node.DeliveredCount()
}

// traceBrcvs reads a node's trace files and returns its brcv events in
// order: the delivery history a daemon keeps on disk, not in memory.
func traceBrcvs(t *testing.T, files ...string) []props.Event {
	t.Helper()
	lg, err := ReadTraceFiles(files...)
	if err != nil {
		t.Fatal(err)
	}
	var out []props.Event
	for _, ev := range lg.Events {
		if ev.Kind == props.TOBrcv {
			out = append(out, ev)
		}
	}
	return out
}

// TestLiveClusterInProcess boots a three-node cluster of real engines
// (real sockets, wall-clock pacing) in one process, drives it through
// the client protocol, checks the client stream against node 0's traced
// deliveries, and checks the merged trace for TO conformance.
func TestLiveClusterInProcess(t *testing.T) {
	cfg := testConfig(t, 3)
	engines := make([]*Engine, 3)
	for i := range engines {
		engines[i] = startTestEngine(t, cfg, i, 0)
	}

	// The client protocol end to end: readiness, submission, streaming.
	c, err := DialClient(engines[0].ClientAddr(), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	const total = 20
	for i := 0; i < total; i++ {
		if err := c.Submit(fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
		// Interleave with direct submissions at another node.
		engines[1].Bcast(types.Value(fmt.Sprintf("w%d", i)))
	}

	// Every node must deliver all 2·total values.
	for i, e := range engines {
		e := e
		waitFor(t, 20*time.Second, fmt.Sprintf("node %d deliveries", i), func() bool {
			return e.deliveredCount() == 2*total
		})
	}
	var streamed []DeliveryLine
	for len(streamed) < 2*total {
		select {
		case d, ok := <-c.Deliveries():
			if !ok {
				t.Fatal("delivery stream closed early")
			}
			streamed = append(streamed, d)
		case <-time.After(10 * time.Second):
			t.Fatalf("streamed only %d/%d deliveries", len(streamed), 2*total)
		}
	}

	if m, err := c.Metrics(5 * time.Second); err != nil || !strings.Contains(m, "to.deliveries") {
		t.Fatalf("metrics: %q, %v", m, err)
	}

	// Graceful stop flushes the traces; then the streamed delivery lines
	// must match node 0's traced brcv sequence, and the merged conformance
	// check.
	logs := make(map[types.ProcID]*props.Log, 3)
	for i, e := range engines {
		e.Close()
		lg, err := ReadTraceFiles(e.opts.TracePath)
		if err != nil {
			t.Fatal(err)
		}
		logs[types.ProcID(i)] = lg
	}
	brcvs := traceBrcvs(t, engines[0].opts.TracePath)
	if len(brcvs) != 2*total {
		t.Fatalf("node 0 traced %d deliveries, want %d", len(brcvs), 2*total)
	}
	for i, d := range streamed {
		if want := brcvs[i]; string(want.Value) != d.Value || want.From != d.From {
			t.Fatalf("stream line %d: got %v %q, want %v %q", i, d.From, d.Value, want.From, want.Value)
		}
	}
	chk, err := CheckMergedTO(logs)
	if err != nil {
		t.Fatal(err)
	}
	if chk.OrderLen() != 2*total {
		t.Fatalf("merged order has %d values, want %d", chk.OrderLen(), 2*total)
	}
}

// TestLiveCommitLatencyBelowPi: a value
// submitted at a follower comes back on its own stream after a handful of
// ring hops — a token request, a demand launch, an announce round — not
// after the next π-paced launch, and not after the next pacer tick: the
// median commit latency sits well below π (25 ms at δ = 5 ms), where the
// timer-driven engine measured π and the tail 2π.
func TestLiveCommitLatencyBelowPi(t *testing.T) {
	cfg := testConfig(t, 3)
	engines := make([]*Engine, 3)
	for i := range engines {
		engines[i] = startTestEngine(t, cfg, i, 0)
	}
	c, err := DialClient(engines[1].ClientAddr(), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	commit := func(v string) time.Duration {
		t.Helper()
		start := time.Now()
		if err := c.Submit(v); err != nil {
			t.Fatal(err)
		}
		select {
		case d, ok := <-c.Deliveries():
			if !ok || d.Value != v {
				t.Fatalf("stream gave %q (open=%v), want %q", d.Value, ok, v)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("%q not delivered", v)
		}
		return time.Since(start)
	}
	commit("warm-up") // connections dialed, initial view running

	const samples = 41
	lat := make([]time.Duration, samples)
	for i := range lat {
		lat[i] = commit(fmt.Sprintf("v%d", i))
		time.Sleep(3 * time.Millisecond) // drift across the π phase
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	pi := time.Duration(3+2) * cfg.Delta() // vsimpl.DefaultConfig: π = (n+2)δ
	if median := lat[samples/2]; median >= pi {
		t.Errorf("median commit latency %v, want < π = %v (max %v)", median, pi, lat[samples-1])
	}
	if got := engines[1].Metrics().Counters["vs.token_requests"]; got == 0 {
		t.Error("the follower never asked for the token")
	}
	if got := engines[0].Metrics().Counters["vs.token_demand_launches"]; got == 0 {
		t.Error("the leader never launched on demand")
	}
}

// TestDialClientWaitsForTheDaemon: a TCP connect completes in the kernel
// before the daemon accepts it, so DialClient proves registration with a
// PING round trip — a listener that accepts and says nothing is not a
// daemon — and a command on a connection the daemon closed fails at once,
// not at its timeout.
func TestDialClientWaitsForTheDaemon(t *testing.T) {
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close() // held open, never answered
		}
	}()
	if c, err := DialClient(ln.Addr().String(), 300*time.Millisecond); err == nil {
		c.Close()
		t.Fatal("DialClient returned a client for a listener that never answered PING")
	}

	cfg := testConfig(t, 1)
	e := startTestEngine(t, cfg, 0, 0)
	c, err := DialClient(e.ClientAddr(), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	e.Close()
	start := time.Now()
	if err := c.Ping(30 * time.Second); err == nil {
		t.Fatal("PING answered by a closed engine")
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("PING on a closed connection took %v to fail", waited)
	}
}

// TestLiveRestartFromWAL stops a node, restarts a fresh engine over the
// same WAL file, and verifies it rejoins one incarnation up and the
// cluster keeps delivering — the process-restart analogue of the
// simulated amnesia-recovery tests.
func TestLiveRestartFromWAL(t *testing.T) {
	cfg := testConfig(t, 3)
	dir := t.TempDir()
	engines := make([]*Engine, 3)
	start := func(id, run int) *Engine {
		e, err := StartEngine(EngineOptions{
			Config:    cfg,
			Self:      types.ProcID(id),
			WALPath:   filepath.Join(dir, fmt.Sprintf("node%d.wal", id)),
			TracePath: filepath.Join(dir, fmt.Sprintf("node%d.r%d.jsonl", id, run)),
			Tick:      time.Millisecond,
			Logf:      t.Logf,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	for i := range engines {
		engines[i] = start(i, 0)
		defer func(i int) { engines[i].Close() }(i)
	}

	engines[0].Bcast("before")
	for i, e := range engines {
		e := e
		waitFor(t, 20*time.Second, fmt.Sprintf("node %d first delivery", i), func() bool {
			return e.deliveredCount() == 1
		})
	}

	// Stop node 2 and restart it over its WAL.
	engines[2].Close()
	engines[2] = start(2, 1)
	if n := engines[2].node.Recoveries(); n != 1 {
		t.Fatalf("restarted node reports %d recoveries, want 1", n)
	}

	// The restarted node must rejoin and deliver values submitted both
	// elsewhere and at itself. Its count starts at zero: the durable
	// delivery prefix ("before") is not delivered again.
	engines[0].Bcast("after-0")
	waitFor(t, 30*time.Second, "restarted node catches up", func() bool {
		return engines[2].deliveredCount() >= 1
	})
	engines[2].Bcast("after-2")
	for i, e := range engines {
		e, want := e, 3
		if i == 2 {
			want = 2
		}
		waitFor(t, 30*time.Second, fmt.Sprintf("node %d full delivery", i), func() bool {
			return e.deliveredCount() == want
		})
	}

	// Every node's traced deliveries, across its incarnation files, end
	// with "after-2"; then merged conformance.
	logs := make(map[types.ProcID]*props.Log, 3)
	for i, e := range engines {
		e.Close()
		var files []string
		if i == 2 {
			files = []string{
				filepath.Join(dir, "node2.r0.jsonl"),
				filepath.Join(dir, "node2.r1.jsonl"),
			}
		} else {
			files = []string{filepath.Join(dir, fmt.Sprintf("node%d.r0.jsonl", i))}
		}
		brcvs := traceBrcvs(t, files...)
		if len(brcvs) != 3 || string(brcvs[2].Value) != "after-2" {
			t.Fatalf("node %d traced %d deliveries, want 3 ending in after-2: %v", i, len(brcvs), brcvs)
		}
		lg, err := ReadTraceFiles(files...)
		if err != nil {
			t.Fatal(err)
		}
		logs[types.ProcID(i)] = lg
	}
	if _, err := CheckMergedTO(logs); err != nil {
		t.Fatal(err)
	}
}

func TestSanitizeJSONLTornTail(t *testing.T) {
	good := `{"kind":"bcast","p":0,"value":"a","value_seq":1}` + "\n"
	torn := good + `{"kind":"brcv","p":0,"fr`
	clean, err := sanitizeJSONL("x", []byte(torn))
	if err != nil {
		t.Fatal(err)
	}
	if string(clean) != strings.TrimSuffix(good, "\n") {
		t.Fatalf("got %q", clean)
	}

	// A torn line mid-file is corruption, not a tail: error.
	bad := torn + "\n" + good
	if _, err := sanitizeJSONL("x", []byte(bad)); err == nil {
		t.Fatal("mid-file corruption not detected")
	}

	// Intact input passes through unchanged.
	clean, err = sanitizeJSONL("x", []byte(good+good))
	if err != nil || string(clean) != good+good {
		t.Fatalf("intact input mangled: %q, %v", clean, err)
	}
}

func TestCheckMergedTODetectsViolations(t *testing.T) {
	mk := func(events ...props.Event) *props.Log {
		return &props.Log{Events: events}
	}
	bcast := func(p types.ProcID, v string) props.Event {
		return props.Event{Kind: props.TOBcast, P: p, Value: types.Value(v)}
	}
	brcv := func(p, from types.ProcID, v string) props.Event {
		return props.Event{Kind: props.TOBrcv, P: p, From: from, Value: types.Value(v)}
	}

	// Consistent: both nodes deliver the same cross-origin order.
	logs := map[types.ProcID]*props.Log{
		0: mk(bcast(0, "a"), brcv(0, 0, "a"), brcv(0, 1, "b")),
		1: mk(bcast(1, "b"), brcv(1, 0, "a"), brcv(1, 1, "b")),
	}
	if _, err := CheckMergedTO(logs); err != nil {
		t.Fatalf("consistent logs rejected: %v", err)
	}

	// Order violation: the nodes disagree on the global order.
	logs = map[types.ProcID]*props.Log{
		0: mk(bcast(0, "a"), brcv(0, 0, "a"), brcv(0, 1, "b")),
		1: mk(bcast(1, "b"), brcv(1, 1, "b"), brcv(1, 0, "a")),
	}
	if _, err := CheckMergedTO(logs); err == nil {
		t.Fatal("order disagreement not detected")
	}

	// Integrity violation: a delivery with no matching submission.
	logs = map[types.ProcID]*props.Log{
		0: mk(brcv(0, 1, "ghost")),
		1: mk(),
	}
	if _, err := CheckMergedTO(logs); err == nil {
		t.Fatal("integrity violation not detected")
	}
}

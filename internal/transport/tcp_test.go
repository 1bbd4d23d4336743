package transport_test

import (
	"encoding/binary"
	"fmt"
	stdnet "net"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/codec"
	"repro/internal/membership"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/vsimpl"
	"repro/internal/vstoto"
)

// freePort reserves an ephemeral localhost port and returns its address.
// There is a tiny window between releasing and rebinding, acceptable in
// tests.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// sink collects delivered packets thread-safely.
type sink struct {
	mu   sync.Mutex
	pkts []transport.Packet
}

func (s *sink) handle(p transport.Packet) {
	s.mu.Lock()
	s.pkts = append(s.pkts, p)
	s.mu.Unlock()
}

func (s *sink) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pkts)
}

func (s *sink) snapshot() []transport.Packet {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]transport.Packet(nil), s.pkts...)
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func newTCP(t *testing.T, self types.ProcID, addrs map[types.ProcID]string, reg *obs.Registry, tune func(*transport.TCPConfig)) *transport.TCP {
	t.Helper()
	cfg := transport.TCPConfig{
		Self:   self,
		Addrs:  addrs,
		Delta:  5 * time.Millisecond,
		Encode: codec.Encode,
		Decode: codec.Decode,
		Obs:    reg,
	}
	if tune != nil {
		tune(&cfg)
	}
	tr := transport.NewTCP(cfg)
	if err := tr.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// wireFrame hand-builds one frame from processor `from`: the 8-byte header,
// then each payload behind its u32 sub-length.
func wireFrame(t *testing.T, from types.ProcID, payloads ...any) []byte {
	t.Helper()
	frame := make([]byte, 8)
	for _, p := range payloads {
		b, err := codec.Encode(p)
		if err != nil {
			t.Fatal(err)
		}
		frame = binary.LittleEndian.AppendUint32(frame, uint32(len(b)))
		frame = append(frame, b...)
	}
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(frame)-8))
	binary.LittleEndian.PutUint32(frame[4:8], uint32(from))
	return frame
}

// TestWireTypesOverSocket round-trips every wire type the codec knows
// across a real socket pair and asserts exact fidelity — the live
// equivalent of the codec's in-memory round-trip tests — with every frame a
// batch of one and with the default coalescing.
func TestWireTypesOverSocket(t *testing.T) {
	for _, maxMsgs := range []int{1, 64} {
		t.Run(fmt.Sprintf("MaxBatchMsgs=%d", maxMsgs), func(t *testing.T) { wireTypesOverSocket(t, maxMsgs) })
	}
}

func wireTypesOverSocket(t *testing.T, maxMsgs int) {
	addrs := map[types.ProcID]string{0: freePort(t), 1: freePort(t)}
	regA, regB := obs.New(), obs.New()
	a := newTCP(t, 0, addrs, regA, func(c *transport.TCPConfig) { c.MaxBatchMsgs = maxMsgs })
	b := newTCP(t, 1, addrs, regB, nil)

	var got sink
	b.Register(1, got.handle)

	label := types.Label{ID: types.ViewID{Epoch: 3, Proc: 2}, Seqno: 7, Origin: 2}
	view := types.View{ID: types.ViewID{Epoch: 5, Proc: 1}, Set: types.NewProcSet(0, 1, 2)}
	payloads := []any{
		vstoto.LabeledValue{L: label, A: types.Value("hello")},
		&vstoto.Summary{
			Con:  map[types.Label]types.Value{label: "v"},
			Ord:  []types.Label{label},
			Next: 2,
			High: types.ViewID{Epoch: 4, Proc: 0},
		},
		membership.CallPkt{ID: types.ViewID{Epoch: 9, Proc: 1}},
		membership.AcceptPkt{ID: types.ViewID{Epoch: 9, Proc: 1}},
		membership.NewviewPkt{V: view},
		&vsimpl.TokenPkt{
			View: view,
			Base: 1,
			Msgs: []vsimpl.TokenMsg{{
				ID:      check.MsgID{Sender: 2, Seq: 1<<33 + 5},
				From:    2,
				Payload: vstoto.LabeledValue{L: label, A: "tok"},
			}},
			Delivered: map[types.ProcID]int{0: 1, 1: 2, 2: 2},
		},
		vsimpl.ProbePkt{ViewID: types.ViewID{Epoch: 2, Proc: 0}},
		"raw string payload",
	}
	for _, p := range payloads {
		a.Send(0, 1, p)
	}
	waitFor(t, 5*time.Second, "all payloads", func() bool { return got.len() == len(payloads) })

	for i, pkt := range got.snapshot() {
		if pkt.From != 0 || pkt.To != 1 {
			t.Errorf("packet %d: from/to = %v/%v", i, pkt.From, pkt.To)
		}
		if !reflect.DeepEqual(pkt.Payload, payloads[i]) {
			t.Errorf("payload %d: got %#v, want %#v", i, pkt.Payload, payloads[i])
		}
	}
	// Loopback self-send also round-trips through the codec.
	var self sink
	a.Register(0, self.handle)
	a.Send(0, 0, payloads[0])
	waitFor(t, time.Second, "loopback", func() bool { return self.len() == 1 })
	if !reflect.DeepEqual(self.snapshot()[0].Payload, payloads[0]) {
		t.Errorf("loopback payload mismatch")
	}
}

// TestReconnectAfterPeerRestart kills and restarts the receiving endpoint
// on the same address and asserts the sender's connection management heals
// the link (and counts the reconnect).
func TestReconnectAfterPeerRestart(t *testing.T) {
	addrs := map[types.ProcID]string{0: freePort(t), 1: freePort(t)}
	regA := obs.New()
	a := newTCP(t, 0, addrs, regA, func(c *transport.TCPConfig) {
		c.DialMin = 5 * time.Millisecond
	})

	var got1 sink
	b1 := newTCP(t, 1, addrs, obs.New(), nil)
	b1.Register(1, got1.handle)
	a.Send(0, 1, "before-restart")
	waitFor(t, 5*time.Second, "first delivery", func() bool { return got1.len() == 1 })

	b1.Close()

	var got2 sink
	b2 := newTCP(t, 1, addrs, obs.New(), nil)
	b2.Register(1, got2.handle)
	// The sender's established connection is dead but it cannot know until
	// a write fails; a real protocol retries (tokens relaunch, probes
	// repeat), so the test does too.
	waitFor(t, 10*time.Second, "delivery after restart", func() bool {
		a.Send(0, 1, "after-restart")
		return got2.len() > 0
	})
	if regA.Counter("transport.reconnects").Value() < 1 {
		t.Errorf("reconnects = %d, want >= 1", regA.Counter("transport.reconnects").Value())
	}
	for _, pkt := range got2.snapshot() {
		if pkt.Payload != "after-restart" {
			t.Errorf("unexpected payload after restart: %#v", pkt.Payload)
		}
	}
}

// TestSendQueueOverflow fills a tiny send queue against an unreachable
// peer and asserts drop-oldest accounting: the overflow counter matches
// exactly what is missing, and the frames that survive are the newest.
func TestSendQueueOverflow(t *testing.T) {
	peerAddr := freePort(t) // nothing listens here yet
	addrs := map[types.ProcID]string{0: freePort(t), 1: peerAddr}
	regA := obs.New()
	a := newTCP(t, 0, addrs, regA, func(c *transport.TCPConfig) {
		c.QueueLimit = 4
		// One message per frame pins the frame-granular drop-oldest
		// accounting (coalescing would put the burst into one frame and
		// nothing would ever overflow — TestSendQueueOverflowBatched covers
		// multi-message frames).
		c.MaxBatchMsgs = 1
		// Long backoff: the first dial fails instantly (connection refused)
		// and the writer then sits in backoff while the test overflows the
		// queue.
		c.DialMin = 300 * time.Millisecond
		c.DialMax = 500 * time.Millisecond
	})

	const total = 10
	// The writer pops every queued frame at once and holds them through its
	// failing dials, so how many it holds depends on when it wakes. Let it
	// take m0 alone first: from then on nothing drains the queue, and the
	// rest of the burst is queued or evicted inside Send.
	a.Send(0, 1, "m0")
	waitFor(t, 2*time.Second, "writer to take m0", func() bool { return a.QueuedFor(1) == 0 })
	for i := 1; i < total; i++ {
		a.Send(0, 1, fmt.Sprintf("m%d", i))
	}
	dropped := int(regA.Counter("transport.drops_overflow").Value())
	if want := total - 1 - 4; dropped != want {
		t.Fatalf("drops_overflow = %d, want %d", dropped, want)
	}

	// Bring the peer up; the survivors must all arrive.
	var got sink
	b := newTCP(t, 1, addrs, obs.New(), nil)
	b.Register(1, got.handle)
	want := total - dropped
	waitFor(t, 10*time.Second, "survivors", func() bool { return got.len() >= want })
	time.Sleep(50 * time.Millisecond)
	pkts := got.snapshot()
	if len(pkts) != want {
		t.Fatalf("delivered %d frames, want %d (dropped %d)", len(pkts), want, dropped)
	}
	if pkts[0].Payload != "m0" {
		t.Errorf("first delivery = %#v, want the writer's held frame %q", pkts[0].Payload, "m0")
	}
	// Drop-oldest: the newest 4 sends always survive, in order, at the tail.
	tail := pkts[len(pkts)-4:]
	for i, pkt := range tail {
		want := fmt.Sprintf("m%d", total-4+i)
		if pkt.Payload != want {
			t.Errorf("tail[%d] = %#v, want %q", i, pkt.Payload, want)
		}
	}
	if g := regA.Gauge("transport.queue_depth").Value(); g != 4 {
		t.Errorf("queue_depth high-water = %d, want 4", g)
	}
}

// TestSendQueueOverflowBatched is the multi-message twin of
// TestSendQueueOverflow: entries coalesce up to MaxBatchMsgs messages, so
// drop-oldest evicts multi-message frames and the frame-granular counter
// alone would undercount the loss. Asserts the message-granular
// accounting conserves every message (delivered + dropped = sent), that
// survivors arrive in submission order, and that the current-depth gauge
// decays to zero once the queue drains.
func TestSendQueueOverflowBatched(t *testing.T) {
	peerAddr := freePort(t) // nothing listens here yet
	addrs := map[types.ProcID]string{0: freePort(t), 1: peerAddr}
	regA := obs.New()
	a := newTCP(t, 0, addrs, regA, func(c *transport.TCPConfig) {
		c.QueueLimit = 2
		c.MaxBatchMsgs = 2
		c.DialMin = 300 * time.Millisecond
		c.DialMax = 500 * time.Millisecond
	})

	const total = 10
	for i := 0; i < total; i++ {
		a.Send(0, 1, fmt.Sprintf("m%d", i))
	}
	// Evictions happen synchronously inside Send, so the drop counters
	// are final here. Every evicted entry holds exactly MaxBatchMsgs
	// messages (an entry only stops being the coalescing tail once full),
	// so the message-granular counter must be exactly 2x the frame one.
	dropsFrames := regA.Counter("transport.drops_overflow").Value()
	dropsMsgs := regA.Counter("transport.drops_overflow_msgs").Value()
	if dropsFrames < 1 {
		t.Fatalf("burst never overflowed the queue (drops_overflow = %d)", dropsFrames)
	}
	if dropsMsgs != 2*dropsFrames {
		t.Fatalf("drops_overflow_msgs = %d, want 2x drops_overflow (%d)", dropsMsgs, dropsFrames)
	}

	// Bring the peer up; everything not dropped must arrive, in order.
	var got sink
	b := newTCP(t, 1, addrs, obs.New(), nil)
	b.Register(1, got.handle)
	want := total - int(dropsMsgs)
	waitFor(t, 10*time.Second, "survivors", func() bool { return got.len() >= want })
	time.Sleep(50 * time.Millisecond)
	pkts := got.snapshot()
	if len(pkts) != want {
		t.Fatalf("delivered %d messages, want %d (dropped %d)", len(pkts), want, dropsMsgs)
	}
	// Submission order survives batching and drop-oldest: the delivered
	// indices are strictly increasing and end with the newest message.
	last := -1
	for i, pkt := range pkts {
		var idx int
		if _, err := fmt.Sscanf(pkt.Payload.(string), "m%d", &idx); err != nil {
			t.Fatalf("pkts[%d] = %#v", i, pkt.Payload)
		}
		if idx <= last {
			t.Fatalf("out of order: m%d after m%d", idx, last)
		}
		last = idx
	}
	if last != total-1 {
		t.Errorf("newest message m%d did not survive (last = m%d)", total-1, last)
	}
	// High-water depth is message-granular (2 entries x 2 msgs max); the
	// current-depth gauge must have decayed with the drain.
	if g := regA.Gauge("transport.queue_depth").Value(); g < 2 || g > 4 {
		t.Errorf("queue_depth high-water = %d, want within [2,4]", g)
	}
	waitFor(t, 2*time.Second, "queue_depth_now decay", func() bool {
		return regA.Gauge("transport.queue_depth_now").Value() == 0
	})
}

// TestPartialFrameAtClose cuts a connection mid-frame and asserts the
// fragment is discarded (read error, no delivery) without poisoning the
// endpoint: a later well-formed connection still delivers.
func TestPartialFrameAtClose(t *testing.T) {
	addrs := map[types.ProcID]string{1: freePort(t)}
	regB := obs.New()
	b := newTCP(t, 1, addrs, regB, nil)
	var got sink
	b.Register(1, got.handle)

	readErrs := regB.Counter("transport.read_errors")

	// Payload cut short: header claims 100 bytes, only 10 follow.
	conn, err := stdnet.Dial("tcp", addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], 100)
	binary.LittleEndian.PutUint32(hdr[4:8], 0)
	conn.Write(hdr[:])
	conn.Write(make([]byte, 10))
	conn.Close()
	waitFor(t, 2*time.Second, "payload read error", func() bool { return readErrs.Value() >= 1 })

	// Header itself cut short.
	conn2, err := stdnet.Dial("tcp", addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	conn2.Write(hdr[:3])
	conn2.Close()
	waitFor(t, 2*time.Second, "header read error", func() bool { return readErrs.Value() >= 2 })

	// Oversized length field: corrupt stream, connection dropped.
	conn3, err := stdnet.Dial("tcp", addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(hdr[0:4], 1<<30)
	conn3.Write(hdr[:])
	waitFor(t, 2*time.Second, "oversized-frame error", func() bool { return readErrs.Value() >= 3 })
	conn3.Close()

	// Sub-header faults inside a frame whose outer length is honest: two
	// stray bytes where a sub-header should start, a sub-length running past
	// the frame's end, and a zero sub-length. The framing is unsound, so the
	// connection drops and nothing of the frame is delivered.
	good := wireFrame(t, 0, "healthy")
	relen := func(f []byte) []byte {
		binary.LittleEndian.PutUint32(f[0:4], uint32(len(f)-8))
		return f
	}
	pastEnd := append([]byte(nil), good...)
	binary.LittleEndian.PutUint32(pastEnd[8:12], uint32(len(good)))
	want := readErrs.Value()
	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"torn sub-header", relen(append(append([]byte(nil), good...), 0xAA, 0xBB))},
		{"sub-length past end", pastEnd},
		{"zero sub-length", relen(append(append([]byte(nil), good[:8]...), 0, 0, 0, 0))},
	} {
		c, err := stdnet.Dial("tcp", addrs[1])
		if err != nil {
			t.Fatal(err)
		}
		c.Write(tc.frame)
		want++
		waitFor(t, 2*time.Second, tc.name+" error", func() bool { return readErrs.Value() >= want })
		c.Close()
	}

	// "torn sub-header" carries one sound message ahead of the tear; that
	// one is delivered before the tear is met.
	waitFor(t, 2*time.Second, "message ahead of the tear", func() bool { return got.len() == 1 })

	// The endpoint is still healthy: a well-formed one-message frame goes
	// through.
	conn4, err := stdnet.Dial("tcp", addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer conn4.Close()
	conn4.Write(good)
	waitFor(t, 2*time.Second, "healthy delivery", func() bool { return got.len() == 2 })
	for _, p := range got.snapshot() {
		if p.Payload != "healthy" || p.From != 0 {
			t.Errorf("got %#v from %v, want \"healthy\" from p0", p.Payload, p.From)
		}
	}
}

// TestListenerPauseResume severs all inbound links (the live injector's
// channel-fault realization) and verifies traffic resumes after the
// listener comes back.
func TestListenerPauseResume(t *testing.T) {
	addrs := map[types.ProcID]string{0: freePort(t), 1: freePort(t)}
	a := newTCP(t, 0, addrs, obs.New(), func(c *transport.TCPConfig) {
		c.DialMin = 5 * time.Millisecond
	})
	b := newTCP(t, 1, addrs, obs.New(), nil)
	var got sink
	b.Register(1, got.handle)

	a.Send(0, 1, "up")
	waitFor(t, 5*time.Second, "delivery while up", func() bool { return got.len() == 1 })

	b.PauseListener()
	time.Sleep(50 * time.Millisecond)
	a.Send(0, 1, "lost") // dead conn or refused dial: must not arrive
	time.Sleep(100 * time.Millisecond)

	if err := b.ResumeListener(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "delivery after resume", func() bool {
		a.Send(0, 1, "back")
		for _, p := range got.snapshot() {
			if p.Payload == "back" {
				return true
			}
		}
		return false
	})
}

// TestPauseDuringInFlightFrame pauses the listener while a frame is cut
// mid-write on an accepted connection: the fragment must be discarded
// (partial-frame close), never delivered — and the endpoint must serve
// complete frames again after resume. This is the exact race the live
// injector's LPAUSE creates when it lands between a peer's header and
// payload writes.
func TestPauseDuringInFlightFrame(t *testing.T) {
	addrs := map[types.ProcID]string{1: freePort(t)}
	regB := obs.New()
	b := newTCP(t, 1, addrs, regB, nil)
	var got sink
	b.Register(1, got.handle)
	readErrs := regB.Counter("transport.read_errors")

	frame := wireFrame(t, 0, "in-flight")

	// Header and half the payload, then LPAUSE with the rest unwritten:
	// the reader is blocked mid-frame when the pause closes its
	// connection out from under it.
	conn, err := stdnet.Dial("tcp", addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	half := 8 + (len(frame)-8)/2
	if _, err := conn.Write(frame[:half]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the read loop consume the fragment
	b.PauseListener()
	waitFor(t, 2*time.Second, "mid-frame read error", func() bool { return readErrs.Value() >= 1 })

	// Completing the write now goes nowhere: the connection is dead and
	// the fragment was discarded, not buffered.
	conn.Write(frame[half:])
	time.Sleep(100 * time.Millisecond)
	if got.len() != 0 {
		t.Fatalf("torn frame delivered %d packets, want 0", got.len())
	}

	// After resume, a complete frame on a fresh connection goes through.
	if err := b.ResumeListener(); err != nil {
		t.Fatal(err)
	}
	conn2, err := stdnet.Dial("tcp", addrs[1])
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	conn2.Write(wireFrame(t, 0, "after-resume"))
	waitFor(t, 5*time.Second, "post-resume delivery", func() bool { return got.len() == 1 })
	if p := got.snapshot()[0]; p.Payload != "after-resume" {
		t.Errorf("got %#v, want \"after-resume\"", p.Payload)
	}
}

package live

import (
	"bufio"
	"bytes"
	"fmt"
	stdnet "net"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"
)

// fakeDaemon stands in for pgcsd on a loopback listener: it accepts one
// client connection, answers each PING with PONG, and lets the test write
// D and BUSY lines on the same connection. A PONG leaves after every line
// written before the PING arrived, so a Ping that returns proves the
// client's reader has taken all of them off the connection.
type fakeDaemon struct {
	ln   stdnet.Listener
	mu   sync.Mutex // serializes writes
	conn stdnet.Conn
	w    *bufio.Writer
	done chan struct{} // closed when the connection has ended
}

func startFakeDaemon(t *testing.T) *fakeDaemon {
	t.Helper()
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d := &fakeDaemon{ln: ln, done: make(chan struct{})}
	go d.serve()
	t.Cleanup(func() {
		d.hangUp()
		<-d.done
	})
	return d
}

func (d *fakeDaemon) serve() {
	defer close(d.done)
	conn, err := d.ln.Accept()
	d.ln.Close()
	if err != nil {
		return
	}
	d.mu.Lock()
	d.conn, d.w = conn, bufio.NewWriter(conn)
	d.mu.Unlock()
	sc := bufio.NewScanner(conn)
	for sc.Scan() {
		if sc.Text() == "PING" {
			d.write("PONG")
		}
	}
	conn.Close()
}

func (d *fakeDaemon) write(lines ...string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, l := range lines {
		d.w.WriteString(l)
		d.w.WriteByte('\n')
	}
	return d.w.Flush()
}

// stream writes the D lines of values first … first+n-1.
func (d *fakeDaemon) stream(t *testing.T, first, n int) {
	t.Helper()
	d.mu.Lock()
	for i := first; i < first+n; i++ {
		fmt.Fprintf(d.w, "D %d %s\n", i%3, testValue(i))
	}
	err := d.w.Flush()
	d.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
}

// hangUp closes the daemon's end of the connection (or, before a client
// has connected, its listener).
func (d *fakeDaemon) hangUp() {
	d.ln.Close()
	d.mu.Lock()
	if d.conn != nil {
		d.conn.Close()
	}
	d.mu.Unlock()
}

func testValue(i int) string { return "v" + strconv.Itoa(i) }

func dialFake(t *testing.T) (*fakeDaemon, *Client) {
	t.Helper()
	d := startFakeDaemon(t)
	c, err := DialClient(d.ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return d, c
}

// expectDeliveries receives values first … first+n-1 from c, in order.
func expectDeliveries(t *testing.T, c *Client, first, n int) {
	t.Helper()
	timeout := time.NewTimer(10 * time.Second)
	defer timeout.Stop()
	for i := first; i < first+n; i++ {
		select {
		case d, ok := <-c.Deliveries():
			if !ok {
				t.Fatalf("stream closed before value %d", i)
			}
			if d.Value != testValue(i) || int(d.From) != i%3 {
				t.Fatalf("delivery %d = %+v, want %s from %d", i, d, testValue(i), i%3)
			}
		case <-timeout.C:
			t.Fatalf("value %d not received", i)
		}
	}
}

// TestClientKeepsOrderAcrossSpill: a backlog far beyond the fixed channel
// spills, and the consumer still receives every line in wire order while
// new lines keep arriving behind the spill; BUSY lines keep theirs too.
func TestClientKeepsOrderAcrossSpill(t *testing.T) {
	d, c := dialFake(t)
	d.stream(t, 0, 5000)
	if err := c.Ping(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	expectDeliveries(t, c, 0, 100)
	d.stream(t, 5000, 5000)
	busy := make([]string, 1000)
	for i := range busy {
		busy[i] = "BUSY b" + strconv.Itoa(i)
	}
	if err := d.write(busy...); err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	expectDeliveries(t, c, 100, 9900)
	select {
	case extra := <-c.Deliveries():
		t.Fatalf("delivery past the last one sent: %+v", extra)
	default:
	}
	for i := range busy {
		select {
		case got := <-c.Rejects():
			if want := "b" + strconv.Itoa(i); got != want {
				t.Fatalf("reject %d = %q, want %q", i, got, want)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("reject %d not received", i)
		}
	}
}

// TestClientShedsBeyondBound: an unread client keeps exactly the first
// 65 536 delivery lines and sheds the rest, as its fixed slab used to.
func TestClientShedsBeyondBound(t *testing.T) {
	const kept, sent = 1 << 16, 1<<16 + 10
	d, c := dialFake(t)
	d.stream(t, 0, sent)
	if err := c.Ping(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	d.hangUp()
	expectDeliveries(t, c, 0, kept)
	select {
	case extra, ok := <-c.Deliveries():
		if ok {
			t.Fatalf("line %+v kept beyond the %d-line bound", extra, kept)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stream not closed after the daemon hung up")
	}
}

// TestClientClosesDeliveriesAfterBacklog: when the daemon disconnects with
// a spilled backlog unread, the stream closes only after every queued
// line has been received.
func TestClientClosesDeliveriesAfterBacklog(t *testing.T) {
	const n = 10000
	d, c := dialFake(t)
	d.stream(t, 0, n)
	if err := c.Ping(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	d.hangUp()
	<-c.readDone // the reader has ended the stream
	expectDeliveries(t, c, 0, n)
	select {
	case extra, ok := <-c.Deliveries():
		if ok {
			t.Fatalf("delivery past the last one sent: %+v", extra)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stream not closed after its backlog was received")
	}
}

// clientGoroutines returns, by goroutine id, the stacks of the
// goroutines running a Client's reader or one of its pumps.
func clientGoroutines() map[string]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	ids := map[string]string{}
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("live.(*Client).readLoop")) || bytes.Contains(g, []byte("live.(*backlog[")) {
			id, _, _ := bytes.Cut(bytes.TrimPrefix(g, []byte("goroutine ")), []byte(" "))
			ids[string(id)] = string(g)
		}
	}
	return ids
}

// TestClientCloseLeavesNoGoroutine: Close returns only once the reader
// and the pump feeding an unread 10 000-line backlog have exited.
func TestClientCloseLeavesNoGoroutine(t *testing.T) {
	before := clientGoroutines()
	d, c := dialFake(t)
	d.stream(t, 0, 10000)
	if err := c.Ping(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	pumping := false
	for id, g := range clientGoroutines() {
		_, old := before[id]
		pumping = pumping || !old && bytes.Contains([]byte(g), []byte(").pump("))
	}
	if !pumping {
		t.Fatal("no pump runs behind an unread 10 000-line backlog")
	}
	c.Close()
	for id, g := range clientGoroutines() {
		if _, old := before[id]; !old {
			t.Errorf("goroutine outlived Close:\n%s", g)
		}
	}
}

// retainedHeap is the live heap after two collections.
func retainedHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestClientHeapFollowsBacklog is the client's memory budget: a dialed,
// idle client (with the fake daemon's end of its connection) retains at
// most 64 KiB, a 20 000-line backlog is held while unread, and once it is
// consumed the retained heap falls back under the same bound.
func TestClientHeapFollowsBacklog(t *testing.T) {
	const (
		budget = 64 << 10
		lines  = 20000
	)
	d := startFakeDaemon(t)
	base := retainedHeap()
	c, err := DialClient(d.ln.Addr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	idle := retainedHeap() - base
	if idle > budget {
		t.Errorf("idle client retains %d B, budget %d B", idle, budget)
	}
	d.stream(t, 0, lines)
	if err := c.Ping(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	held := retainedHeap() - base
	if floor := int64(lines * 24); held < floor { // a DeliveryLine is 24 B
		t.Errorf("an unread %d-line backlog retains %d B, under the %d B its lines take", lines, held, floor)
	}
	expectDeliveries(t, c, 0, lines)
	after := retainedHeap() - base
	t.Logf("retained: %d B idle, %d B with %d lines unread, %d B once they are read", idle, held, lines, after)
	if after > budget {
		t.Errorf("client retains %d B after its backlog was read, budget %d B", after, budget)
	}
	runtime.KeepAlive(c)
}

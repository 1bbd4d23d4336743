package live

import (
	"bufio"
	"bytes"
	"fmt"
	stdnet "net"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/types"
)

// DeliveryLine is one delivery streamed by a daemon to a client.
type DeliveryLine struct {
	From  types.ProcID
	Value string
}

// maxUnreadDeliveries and maxUnreadRejects bound what a Client holds for
// a consumer that does not read: the reader sheds lines beyond them.
const (
	maxUnreadDeliveries = 1 << 16
	maxUnreadRejects    = 1 << 12
)

// Client speaks the daemon's client/control line protocol. Submissions
// and control commands go out on one connection; a background reader
// splits the inbound stream into delivery lines and command replies.
// Deliveries and rejects reach the consumer in wire order, and the client
// holds only what the consumer has not read yet: its memory follows the
// unread backlog, up to 65 536 delivery lines (4 096 rejects), beyond
// which further lines are shed.
type Client struct {
	conn stdnet.Conn

	wmu sync.Mutex // serializes writes

	deliveries *backlog[DeliveryLine]
	rejects    *backlog[string] // values bounced by backpressure (BUSY ...)
	replies    chan string      // PONG / OK / ERR ... / M ... / ST ...

	quit      chan struct{} // closed by Close
	readDone  chan struct{} // closed when readLoop returns
	closeOnce sync.Once
}

// NodeStatus is one daemon's STATUS reply: whether the node is stalled
// (not in an established primary component), its accepted-but-undelivered
// submission backlog, and its delivered count.
type NodeStatus struct {
	Stalled   bool
	Pending   int64
	Delivered int64
}

// DialClient connects to a daemon's client address and round-trips a PING,
// retrying until the timeout elapses (daemons come up asynchronously). The
// kernel completes a TCP connect before the daemon accepts it, and a
// delivery in that window is streamed only to the connections already
// registered; the reply proves this one is, so every delivery caused by
// what the caller does next reaches Deliveries.
func DialClient(addr string, timeout time.Duration) (*Client, error) {
	deadline := time.Now().Add(timeout)
	var lastErr error
	for time.Now().Before(deadline) {
		conn, err := stdnet.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			quit := make(chan struct{})
			c := &Client{
				conn:       conn,
				deliveries: newBacklog[DeliveryLine](maxUnreadDeliveries, quit),
				rejects:    newBacklog[string](maxUnreadRejects, quit),
				replies:    make(chan string, 16),
				quit:       quit,
				readDone:   make(chan struct{}),
			}
			go c.readLoop()
			if err = c.Ping(time.Until(deadline)); err == nil {
				return c, nil
			}
			c.Close()
		}
		lastErr = err
		time.Sleep(50 * time.Millisecond)
	}
	return nil, fmt.Errorf("live: dial %s: %w", addr, lastErr)
}

func (c *Client) readLoop() {
	defer close(c.readDone)
	sc := bufio.NewScanner(c.conn)
	sc.Buffer(nil, 1<<20) // bufio's default size, grown on demand
	for sc.Scan() {
		line := sc.Bytes() // only the parts kept are copied out
		if rest, ok := bytes.CutPrefix(line, []byte("D ")); ok {
			fromStr, value := cutSpace(rest)
			from, err := strconv.Atoi(string(fromStr))
			if err != nil {
				continue
			}
			c.deliveries.push(DeliveryLine{From: types.ProcID(from), Value: string(value)})
			continue
		}
		if value, ok := bytes.CutPrefix(line, []byte("BUSY ")); ok {
			// Backpressure bounces ride their own stream: the replies
			// channel is small and drop-on-overflow, and a burst of BUSY
			// lines must neither displace command replies nor be lost to
			// the loadgen's retry accounting.
			c.rejects.push(string(value))
			continue
		}
		select {
		case c.replies <- string(line):
		default:
		}
	}
	c.deliveries.end()
	c.rejects.end()
	close(c.replies) // a command waiting on a dead connection fails now, not at its timeout
}

// cutSpace splits a protocol line at its first space.
func cutSpace(line []byte) (head, rest []byte) {
	if i := bytes.IndexByte(line, ' '); i >= 0 {
		return line[:i], line[i+1:]
	}
	return line, nil
}

func (c *Client) send(line string) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	_, err := fmt.Fprintf(c.conn, "%s\n", line)
	return err
}

// reply waits for the next command reply.
func (c *Client) reply(timeout time.Duration) (string, error) {
	select {
	case r, ok := <-c.replies:
		if !ok {
			return "", fmt.Errorf("live: connection closed")
		}
		return r, nil
	case <-time.After(timeout):
		return "", fmt.Errorf("live: reply timeout")
	}
}

// Submit broadcasts a value at the daemon's node. Fire-and-forget: the
// delivery stream is the acknowledgement.
func (c *Client) Submit(value string) error { return c.send("S " + value) }

// Deliveries returns the stream of deliveries, in the order the daemon
// sent them. Lines beyond 65 536 unread are shed; the client's memory
// follows the unread backlog, and a non-blocking drain sees every line
// already read off the connection while that backlog is at most 256
// lines. Closed when the connection drops, after every line read before
// the drop has been received.
func (c *Client) Deliveries() <-chan DeliveryLine { return c.deliveries.ch }

// Rejects returns the stream of values the daemon bounced with BUSY
// (backpressure: the node's pending-submission bound was hit), in order
// and bounded like Deliveries, at 4 096 unread. A bounced value never
// entered the system, so retrying it verbatim is safe.
func (c *Client) Rejects() <-chan string { return c.rejects.ch }

// Status round-trips a STATUS command: stalled/OK, pending backlog,
// delivered count. Non-ST replies arriving in between (stale PONGs, OKs)
// are consumed and skipped until the deadline.
func (c *Client) Status(timeout time.Duration) (NodeStatus, error) {
	if err := c.send("STATUS"); err != nil {
		return NodeStatus{}, err
	}
	deadline := time.Now().Add(timeout)
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			return NodeStatus{}, fmt.Errorf("live: status timeout")
		}
		r, err := c.reply(remain)
		if err != nil {
			return NodeStatus{}, err
		}
		rest, ok := strings.CutPrefix(r, "ST ")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 3 {
			return NodeStatus{}, fmt.Errorf("live: status reply %q", r)
		}
		pending, err1 := strconv.ParseInt(f[1], 10, 64)
		delivered, err2 := strconv.ParseInt(f[2], 10, 64)
		if err1 != nil || err2 != nil {
			return NodeStatus{}, fmt.Errorf("live: status reply %q", r)
		}
		return NodeStatus{Stalled: f[0] == "STALLED", Pending: pending, Delivered: delivered}, nil
	}
}

// Ping round-trips a PING, confirming the daemon's event loop is live.
func (c *Client) Ping(timeout time.Duration) error {
	if err := c.send("PING"); err != nil {
		return err
	}
	r, err := c.reply(timeout)
	if err != nil {
		return err
	}
	if r != "PONG" {
		return fmt.Errorf("live: ping reply %q", r)
	}
	return nil
}

// PauseListener severs the daemon's inbound peer links (channel fault).
func (c *Client) PauseListener() error { return c.command("LPAUSE") }

// ResumeListener restores the daemon's peer listener.
func (c *Client) ResumeListener() error { return c.command("LRESUME") }

// Metrics fetches a JSON metrics snapshot from the daemon.
func (c *Client) Metrics(timeout time.Duration) (string, error) {
	if err := c.send("METRICS"); err != nil {
		return "", err
	}
	r, err := c.reply(timeout)
	if err != nil {
		return "", err
	}
	if rest, ok := strings.CutPrefix(r, "M "); ok {
		return rest, nil
	}
	return "", fmt.Errorf("live: metrics reply %q", r)
}

// Stop asks the daemon to shut down gracefully.
func (c *Client) Stop() error { return c.send("STOP") }

func (c *Client) command(cmd string) error {
	if err := c.send(cmd); err != nil {
		return err
	}
	r, err := c.reply(5 * time.Second)
	if err != nil {
		return err
	}
	if r != "OK" {
		return fmt.Errorf("live: %s reply %q", cmd, r)
	}
	return nil
}

// Close drops the connection and any unread backlog, and returns once
// the client's goroutines have exited.
func (c *Client) Close() error {
	var err error
	c.closeOnce.Do(func() {
		err = c.conn.Close()
		close(c.quit)
		<-c.readDone // no push, so no new pump, after this
		c.deliveries.pumps.Wait()
		c.rejects.pumps.Wait()
	})
	return err
}

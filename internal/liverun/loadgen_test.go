package liverun

import (
	"bufio"
	"fmt"
	stdnet "net"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestLoadgenCapSurvivesReconnect: a dropped stream must not reopen the
// closed-loop cap. A fake daemon that never delivers on its own drops the
// first connection after 100 submissions; on the redial it streams those
// 100 values back as deliveries (the node's ops were still in flight).
// Each value resolves once, so the new connection can never hold more
// than maxOutstanding distinct values.
func TestLoadgenCapSurvivesReconnect(t *testing.T) {
	ln, err := stdnet.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	var (
		mu     sync.Mutex
		first  []string            // values the first connection received
		second = map[string]bool{} // distinct values submitted after the redial
		conns  int
	)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns++
			redial := conns > 1
			mu.Unlock()
			go func(conn stdnet.Conn) {
				defer conn.Close()
				sc := bufio.NewScanner(conn)
				for sc.Scan() {
					line := sc.Text()
					if line == "PING" {
						fmt.Fprintln(conn, "PONG")
						if redial {
							mu.Lock()
							for _, v := range first {
								fmt.Fprintf(conn, "D 0 %s\n", v)
							}
							mu.Unlock()
						}
						continue
					}
					v, ok := strings.CutPrefix(line, "S ")
					if !ok {
						continue
					}
					mu.Lock()
					if redial {
						second[v] = true
					} else {
						first = append(first, v)
					}
					drop := !redial && len(first) == 100
					mu.Unlock()
					if drop {
						return
					}
				}
			}(conn)
		}
	}()

	if _, err := RunLoad(LoadOptions{
		Addrs:    []string{ln.Addr().String()},
		Rate:     2000,
		Duration: 1500 * time.Millisecond,
		Drain:    100 * time.Millisecond,
		RunID:    "cap",
		Logf:     t.Logf,
	}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if conns < 2 || len(second) == 0 {
		t.Fatalf("the generator never resubmitted after the drop: %d connections, %d values", conns, len(second))
	}
	if len(second) > maxOutstanding {
		t.Errorf("the second connection admitted %d distinct values, cap %d", len(second), maxOutstanding)
	}
}

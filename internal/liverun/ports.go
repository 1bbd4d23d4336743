package liverun

import (
	"fmt"
	stdnet "net"
)

// probeBasePort finds a base port whose whole 2n-port block (peer +
// client listener per node) is currently bindable, starting at want and
// advancing by whole blocks. Parallel CI jobs and leftover daemons from
// an aborted run otherwise collide on the fixed defaults, and the
// resulting EADDRINUSE surfaces deep inside a daemon's boot log with no
// hint of which scenario owned the port — so the error here names both
// the busy port and the owning scenario.
//
// The probe is advisory (the port could be taken between probe and
// bind), but it converts the common collisions — a previous scenario's
// TIME_WAIT-free leftovers, a concurrent matrix — into a clean skip to
// the next block.
func probeBasePort(want, n, attempts int, owner string) (int, error) {
	if n <= 0 {
		return 0, fmt.Errorf("liverun: probeBasePort: n must be positive")
	}
	if attempts <= 0 {
		attempts = 1
	}
	var lastErr error
	lastPort := 0
	for a := 0; a < attempts; a++ {
		base := want + a*2*n
		if ok, port, err := blockFree(base, 2*n); ok {
			return base, nil
		} else {
			lastErr, lastPort = err, port
		}
	}
	return 0, fmt.Errorf("liverun: scenario %s: no free 2x%d-port block in [%d,%d): port %d busy: %w",
		owner, n, want, want+attempts*2*n, lastPort, lastErr)
}

// blockFree reports whether every port in [base, base+count) is
// bindable right now; on failure it returns the first busy port and the
// bind error (typically EADDRINUSE).
func blockFree(base, count int) (bool, int, error) {
	for p := base; p < base+count; p++ {
		ln, err := stdnet.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", p))
		if err != nil {
			return false, p, err
		}
		ln.Close()
	}
	return true, 0, nil
}

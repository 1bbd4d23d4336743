package liverun

import (
	"os"
	"testing"
	"time"
)

// Every incarnation's daemon log is the child's stdout and stderr; the
// orchestrator must not keep its own copy open, or a long matrix run
// holds one file descriptor per spawn and respawn.
func TestSpawnDoesNotLeakLogDescriptors(t *testing.T) {
	if _, err := os.Stat("/proc/self/fd"); err != nil {
		t.Skip("no /proc/self/fd on this platform")
	}
	openFDs := func() int {
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(fds)
	}
	cl, err := newCluster(t.TempDir(), "/bin/true", makeConfig(1, 0, 1, 23600), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	before := openFDs()
	for i := 0; i < 20; i++ {
		if err := cl.spawn(0); err != nil {
			t.Fatal(err)
		}
		if err := cl.proc(0).WaitExit(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	if after := openFDs(); after > before {
		t.Fatalf("20 spawns left %d more open file descriptors (%d → %d)", after-before, before, after)
	}
}

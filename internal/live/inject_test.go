package live

import (
	"errors"
	"os"
	"os/exec"
	"testing"
	"time"

	"repro/internal/failures"
	"repro/internal/types"
)

// sleeper spawns a throwaway real process (sleep) wrapped as a Proc.
func sleeper(t *testing.T, seconds string) *Proc {
	t.Helper()
	cmd := exec.Command("sleep", seconds)
	if err := cmd.Start(); err != nil {
		t.Fatalf("start sleep: %v", err)
	}
	p := &Proc{ID: types.ProcID(0), Cmd: cmd}
	t.Cleanup(func() {
		if !p.Exited() {
			_ = p.Kill()
		}
	})
	return p
}

func TestProcKillReaps(t *testing.T) {
	p := sleeper(t, "60")
	if p.Exited() {
		t.Fatal("exited before any signal")
	}
	if err := p.Kill(); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	if !p.Exited() {
		t.Fatal("not reaped after Kill returned")
	}
}

// Apply on a process that is already dead and reaped must surface
// os.ErrProcessDone, not hang or panic — the matrix runner records it as
// an injector error and moves on.
func TestApplyOnDeadProcess(t *testing.T) {
	p := sleeper(t, "60")
	if err := p.Kill(); err != nil {
		t.Fatal(err)
	}
	for _, st := range []failures.Status{failures.Bad, failures.Good, failures.Amnesia} {
		if err := p.Apply(st); !errors.Is(err, os.ErrProcessDone) {
			t.Errorf("Apply(%v) on dead process = %v, want ErrProcessDone", st, err)
		}
	}
}

// SIGKILL kills even a SIGSTOPped process: the stop-then-kill sequence
// (a stopped node being wiped) must reap within the bound.
func TestKillStoppedProcess(t *testing.T) {
	p := sleeper(t, "60")
	if err := p.Apply(failures.Bad); err != nil {
		t.Fatalf("SIGSTOP: %v", err)
	}
	if err := p.Apply(failures.Amnesia); err != nil {
		t.Fatalf("SIGKILL after SIGSTOP: %v", err)
	}
	if !p.Exited() {
		t.Fatal("not reaped after Apply(Amnesia) returned")
	}
}

// WaitExit on a process that will never exit must escalate to SIGKILL at
// the deadline and report the escalation — never return a clean nil, and
// never leak the process.
func TestWaitExitEscalates(t *testing.T) {
	p := sleeper(t, "60")
	start := time.Now()
	err := p.WaitExit(100 * time.Millisecond)
	if err == nil {
		t.Fatal("WaitExit returned nil for a process that never exits")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("WaitExit took %v, want prompt escalation", elapsed)
	}
	if !p.Exited() {
		t.Fatal("process leaked after escalation")
	}
}

func TestWaitExitClean(t *testing.T) {
	p := sleeper(t, "0.05")
	if err := p.WaitExit(10 * time.Second); err != nil {
		t.Fatalf("WaitExit on a clean exit: %v", err)
	}
	if !p.Exited() {
		t.Fatal("Exited false after clean WaitExit")
	}
}

// A SIGSTOP→SIGCONT round trip leaves the process running: resume must
// not be mistaken for an exit, and a later kill still reaps it.
func TestPauseResumeKill(t *testing.T) {
	p := sleeper(t, "60")
	if err := p.Apply(failures.Bad); err != nil {
		t.Fatal(err)
	}
	if err := p.Apply(failures.Good); err != nil {
		t.Fatal(err)
	}
	if p.Exited() {
		t.Fatal("resume reaped the process")
	}
	if err := p.Kill(); err != nil {
		t.Fatal(err)
	}
}

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
	cl, err := newCluster(t.TempDir(), "/bin/true", makeConfig(1, 0, 1, 23600), 0, 0, nil)
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

package liverun

import (
	"fmt"
	"os/exec"
	"sync"
	"syscall"
	"time"

	"repro/internal/failures"
	"repro/internal/types"
)

// Proc is a handle on one spawned daemon process, exposing the failures
// vocabulary (Figure 4) as real process faults:
//
//	Bad     → SIGSTOP  (the processor stops taking steps, state intact)
//	Good    → SIGCONT  (resumes exactly where it stopped)
//	Amnesia → SIGKILL  (volatile state gone; the WAL file survives, and
//	                    the next boot runs the recovery path)
//
// A listener fault — all inbound pairs of a node bad at once — maps to
// the daemon's listener controls (LPAUSE/LRESUME over the control
// connection; see live.Client), not to signals. Executable (scenario.go)
// says which schedules these realise.
type Proc struct {
	ID  types.ProcID
	Cmd *exec.Cmd

	// The process may only be Wait()ed once; every reap path funnels
	// through the single background reaper waitChan starts.
	waitOnce sync.Once
	waitDone chan struct{}
	waitErr  error
}

// Apply maps a processor status onto the live process — the one
// status-to-signal mapping. Good after a SIGSTOP resumes (and is a no-op
// on a running process); reviving a SIGKILLed process needs a restart,
// which only the orchestrator can do (it owns the spawn parameters), so
// callers check Exited first. Signalling an already-exited process
// reports os.ErrProcessDone.
func (p *Proc) Apply(status failures.Status) error {
	switch status {
	case failures.Bad:
		return p.signal(syscall.SIGSTOP)
	case failures.Good:
		return p.signal(syscall.SIGCONT)
	case failures.Amnesia:
		return p.Kill()
	default:
		return fmt.Errorf("liverun: no process realization for status %v", status)
	}
}

// Kill delivers SIGKILL (failures.Amnesia) and reaps the process,
// bounded: SIGKILL cannot be caught or blocked (it kills even a stopped
// process), so a reap that still times out means the process is wedged
// in the kernel — reported rather than leaked.
func (p *Proc) Kill() error {
	if err := p.signal(syscall.SIGKILL); err != nil {
		return err
	}
	select {
	case <-p.waitChan():
		return nil // exit status is necessarily "killed"
	case <-time.After(10 * time.Second):
		return fmt.Errorf("liverun: node %v: unreaped 10s after SIGKILL", p.ID)
	}
}

// WaitExit reaps the process within timeout, escalating to SIGKILL at
// the deadline (a SIGSTOPped or wedged daemon never exits on its own)
// and bounding the post-kill reap too, so no reaper goroutine can leak
// forever on a wedged process. A clean or killed exit returns nil; an
// escalation or an unreapable process is an error the caller surfaces —
// a daemon that had to be SIGKILLed out of a graceful stop may have torn
// its final trace lines.
func (p *Proc) WaitExit(timeout time.Duration) error {
	select {
	case <-p.waitChan():
		return nil
	case <-time.After(timeout):
	}
	if err := p.signal(syscall.SIGKILL); err == nil {
		select {
		case <-p.waitChan():
			return fmt.Errorf("liverun: node %v: not exited after %v; SIGKILLed", p.ID, timeout)
		case <-time.After(10 * time.Second):
			return fmt.Errorf("liverun: node %v: unreaped 10s after SIGKILL escalation", p.ID)
		}
	}
	// The signal failing means the process exited in the race window;
	// the reaper observes it promptly.
	select {
	case <-p.waitChan():
		return nil
	case <-time.After(10 * time.Second):
		return fmt.Errorf("liverun: node %v: unreaped after exit race", p.ID)
	}
}

// Exited reports whether the process has been reaped.
func (p *Proc) Exited() bool {
	select {
	case <-p.waitChan():
		return true
	default:
		return false
	}
}

// waitChan starts (once) the background reaper and returns the channel
// it closes when the process has exited and been reaped.
func (p *Proc) waitChan() <-chan struct{} {
	p.waitOnce.Do(func() {
		p.waitDone = make(chan struct{})
		go func() {
			p.waitErr = p.Cmd.Wait()
			close(p.waitDone)
		}()
	})
	return p.waitDone
}

func (p *Proc) signal(sig syscall.Signal) error {
	if p.Cmd.Process == nil {
		return fmt.Errorf("liverun: node %v: process not started", p.ID)
	}
	return p.Cmd.Process.Signal(sig)
}

package vstoto

import (
	"fmt"

	"repro/internal/ioa"
	"repro/internal/spec/tomachine"
	"repro/internal/types"
)

// AbstractState is the image f(x) of the composed system state under the
// forward simulation relation of Section 6.2: a complete TO-machine state.
type AbstractState struct {
	Queue   []tomachine.Entry
	Pending map[types.ProcID][]types.Value
	Next    map[types.ProcID]int
}

// Abstract computes f(x) for the current state of the composed system:
//
//  1. queue = applyall(⟨allcontent, origin⟩, allconfirm)
//  2. next[p] = nextreport_p
//  3. pending[p] = the values of labels with origin p in allcontent but not
//     in allconfirm, in label order, followed by delay_p.
func (s *System) Abstract() (*AbstractState, error) { return s.abstract(s.derive(newDerived())) }

// abstract computes f(x) into d.abs and returns it.
func (s *System) abstract(d *derived) (*AbstractState, error) {
	if d.contentErr != nil {
		return nil, d.contentErr
	}
	if d.confirmErr != nil {
		return nil, d.confirmErr
	}
	allcontent, allconfirm, abs := d.allcontent, d.allconfirm, &d.abs
	clear(abs.Pending)
	clear(abs.Next)
	clear(d.confirmed)
	abs.Queue = abs.Queue[:0]
	for _, l := range allconfirm {
		a, ok := allcontent[l]
		if !ok {
			return nil, fmt.Errorf("vstoto: confirmed label %v has no content", l)
		}
		abs.Queue = append(abs.Queue, tomachine.Entry{A: a, P: l.Origin})
		d.confirmed[l] = true
	}
	d.vals = d.vals[:0]
	for _, p := range s.VS.Procs().Members() {
		start := len(d.vals)
		for _, l := range d.perOrigin[p] {
			if !d.confirmed[l] {
				d.vals = append(d.vals, allcontent[l])
			}
		}
		d.vals = append(d.vals, s.Procs[p].Delay...)
		abs.Pending[p] = d.vals[start:len(d.vals):len(d.vals)]
		abs.Next[p] = s.Procs[p].NextReport
	}
	return abs, nil
}

// SimulationChecker maintains a shadow TO-machine and, after every step of
// a randomized execution of the composed system, (a) advances the shadow by
// the abstract actions that Lemma 6.25 assigns to the concrete step, and
// (b) verifies that f(x') equals the shadow state exactly. A successful
// long run is a machine-checked witness of the forward simulation and hence
// of Theorem 6.26 on that execution.
type SimulationChecker struct {
	Sys    *System
	Shadow *tomachine.Machine
	d      *derived // rederived after every step
}

// NewSimulationChecker builds the checker with a fresh shadow machine.
func NewSimulationChecker(sys *System) *SimulationChecker {
	return &SimulationChecker{Sys: sys, Shadow: tomachine.New(sys.VS.Procs()), d: newDerived()}
}

// AfterStep advances the shadow machine according to the concrete action
// just performed and checks f-correspondence.
func (c *SimulationChecker) AfterStep(act ioa.Action) error {
	if t, ok := act.(tomachine.Bcast); ok {
		c.Shadow.ApplyBcast(t.A, t.P)
	}
	// Any step may have extended allconfirm (confirm_p corresponds to
	// to-order); catch up the shadow queue before checking deliveries.
	d := c.Sys.derive(c.d)
	if d.confirmErr != nil {
		return d.confirmErr
	}
	if len(d.allconfirm) < len(c.Shadow.Queue) {
		return fmt.Errorf("simulation: allconfirm shrank from %d to %d", len(c.Shadow.Queue), len(d.allconfirm))
	}
	if len(d.allconfirm) > len(c.Shadow.Queue) {
		if d.contentErr != nil {
			return d.contentErr
		}
		for _, l := range d.allconfirm[len(c.Shadow.Queue):] {
			a, ok := d.allcontent[l]
			if !ok {
				return fmt.Errorf("simulation: confirmed label %v has no content", l)
			}
			if err := c.Shadow.ApplyToOrder(a, l.Origin); err != nil {
				return fmt.Errorf("simulation: to-order for confirmed label %v not enabled: %w", l, err)
			}
		}
	}
	if t, ok := act.(tomachine.Brcv); ok {
		if err := c.Shadow.ApplyBrcv(t.A, t.P, t.Q); err != nil {
			return fmt.Errorf("simulation: concrete brcv has no abstract counterpart: %w", err)
		}
	}
	return c.correspond(d)
}

// checkCorrespondence verifies f(x) equals the shadow state exactly.
func (c *SimulationChecker) checkCorrespondence() error { return c.correspond(c.Sys.derive(c.d)) }

// correspond is checkCorrespondence on d, the current state's derivation.
func (c *SimulationChecker) correspond(d *derived) error {
	abs, err := c.Sys.abstract(d)
	if err != nil {
		return err
	}
	if len(abs.Queue) != len(c.Shadow.Queue) {
		return fmt.Errorf("simulation: f(x).queue len %d ≠ shadow len %d", len(abs.Queue), len(c.Shadow.Queue))
	}
	for i := range abs.Queue {
		if abs.Queue[i] != c.Shadow.Queue[i] {
			return fmt.Errorf("simulation: f(x).queue[%d]=%v ≠ shadow %v", i, abs.Queue[i], c.Shadow.Queue[i])
		}
	}
	for _, p := range c.Sys.VS.Procs().Members() {
		if abs.Next[p] != c.Shadow.Next[p] {
			return fmt.Errorf("simulation: f(x).next[%v]=%d ≠ shadow %d", p, abs.Next[p], c.Shadow.Next[p])
		}
		ap, sp := abs.Pending[p], c.Shadow.Pending[p]
		if len(ap) != len(sp) {
			return fmt.Errorf("simulation: f(x).pending[%v]=%v ≠ shadow %v", p, ap, sp)
		}
		for i := range ap {
			if ap[i] != sp[i] {
				return fmt.Errorf("simulation: f(x).pending[%v][%d]=%q ≠ shadow %q", p, i, ap[i], sp[i])
			}
		}
	}
	return nil
}

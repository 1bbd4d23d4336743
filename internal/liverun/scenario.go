package liverun

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/failures"
	"repro/internal/types"
)

// Scenario is one replayable fault schedule: (Kind, Seed, N, WindowMS)
// regenerate Events exactly (chaos.Generate), and Events alone replay
// without the generator — against real processes here, or in the
// simulator (cmd/chaos -campaign Kind -seed … -n … -window …). The matrix
// runner writes the whole struct into each artifact. LossEpochs is
// derived from Events (chaos.LossEpochs) and carried so the artifact
// records exactly which intervals the primary-loss detector guarded.
type Scenario struct {
	Kind       chaos.CampaignType `json:"kind"`
	Seed       int64              `json:"seed"`
	N          int                `json:"n"`
	WindowMS   int64              `json:"window_ms"`
	Events     failures.Schedule  `json:"events"`
	LossEpochs []chaos.Epoch      `json:"loss_epochs,omitempty"`
}

// unit sizes the injector step at the head of s: 1 for a processor event
// (bad → SIGSTOP, amnesia → SIGKILL, good → SIGCONT or a respawn), 2 for
// amnesia and good on one processor at one instant (an outage of zero
// length: the orderly STOP, exit, respawn), n−1 for the full inbound
// column q→v going bad or good at one instant (LPAUSE / LRESUME v: a
// listener hears all of its peers or none). Ugly statuses, pairwise cuts
// and partial columns exist only in the oracle; the error names the event.
func unit(s failures.Schedule, n int) (int, error) {
	e := s[0]
	if e.Status == failures.Ugly || (e.Channel && e.Status == failures.Amnesia) {
		return 0, fmt.Errorf("liverun: event %v is not executable by signals: no process fault has that status", e)
	}
	if !e.Channel {
		if e.Status == failures.Amnesia && len(s) > 1 &&
			s[1] == (failures.Event{Time: e.Time, Proc: e.Proc, Status: failures.Good}) {
			return 2, nil
		}
		return 1, nil
	}
	from := make(map[types.ProcID]bool, n-1)
	for _, c := range s[:min(n-1, len(s))] {
		if c.Channel && c.Time == e.Time && c.Status == e.Status && c.Pair.To == e.Pair.To && c.Pair.From != c.Pair.To {
			from[c.Pair.From] = true
		}
	}
	if len(from) != n-1 {
		return 0, fmt.Errorf("liverun: event %v is not executable by signals: a listener pauses all %d inbound pairs of %v at once, this column has %d",
			e, n-1, e.Pair.To, len(from))
	}
	return n - 1, nil
}

// Executable reports whether the live injector can execute every event of
// s against n processes; the error names the first event it cannot.
func Executable(s failures.Schedule, n int) error {
	for len(s) > 0 {
		k, err := unit(s, n)
		if err != nil {
			return err
		}
		s = s[k:]
	}
	return nil
}

package live_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/failures"
	"repro/internal/liverun"
	"repro/internal/sim"
	"repro/internal/types"
)

// TestProcessLevelCampaignsAreExecutable: every process-level family is a
// schedule the injector accepts, at every cluster size the matrix runs.
func TestProcessLevelCampaignsAreExecutable(t *testing.T) {
	for _, ct := range chaos.Campaigns {
		if !ct.ProcessLevel() {
			continue
		}
		for _, n := range []int{3, 5, 10} {
			for seed := int64(1); seed <= 5; seed++ {
				s, err := chaos.Generate(ct, seed, chaos.Spec{N: n, Window: 6 * time.Second})
				if err != nil {
					t.Fatalf("%s n=%d seed=%d: %v", ct, n, seed, err)
				}
				if err := liverun.Executable(s, n); err != nil {
					t.Errorf("%s n=%d seed=%d: %v", ct, n, seed, err)
				}
			}
		}
	}
}

// TestOracleOnlyFaultsAreRejected: what signals cannot do is refused with
// the offending event named — an ugly status, a partial inbound column, a
// pairwise partition — and no oracle-level campaign that touches channels
// slips through.
func TestOracleOnlyFaultsAreRejected(t *testing.T) {
	const n = 5
	at := sim.Time(750 * time.Millisecond)
	column := func(to types.ProcID, pairs int, st failures.Status) failures.Schedule {
		var s failures.Schedule
		for q := types.ProcID(0); len(s) < pairs; q++ {
			if q != to {
				s = append(s, failures.Event{Time: at, Channel: true, Pair: failures.Pair{From: q, To: to}, Status: st})
			}
		}
		return s
	}
	if err := liverun.Executable(column(2, n-1, failures.Bad), n); err != nil {
		t.Fatalf("full column rejected: %v", err)
	}
	for name, tc := range map[string]struct {
		s      failures.Schedule
		naming string
	}{
		"ugly processor":  {failures.Schedule{{Time: at, Proc: 1, Status: failures.Ugly}}, "ugly_p1@750ms"},
		"ugly column":     {column(2, n-1, failures.Ugly), "ugly_{p0,p2}@750ms"},
		"n-2 pair column": {column(2, n-2, failures.Bad), "bad_{p0,p2}@750ms"},
		"column split across instants": {append(column(2, n-2, failures.Bad),
			failures.Event{Time: at + 1, Channel: true, Pair: failures.Pair{From: 4, To: 2}, Status: failures.Bad}), "bad_{p0,p2}@750ms"},
	} {
		err := liverun.Executable(tc.s, n)
		if err == nil || !strings.Contains(err.Error(), tc.naming) {
			t.Errorf("%s: got %v, want a rejection naming %s", name, err, tc.naming)
		}
	}

	// rolling-partition and every other oracle-level campaign with a
	// channel event: refused, naming one of the schedule's channel events.
	spec := chaos.Spec{N: n, Delta: time.Millisecond, Window: 4 * time.Second}
	rejected := 0
	for _, ct := range chaos.Campaigns {
		if ct.ProcessLevel() {
			continue
		}
		for seed := int64(1); seed <= 5; seed++ {
			s, err := chaos.Generate(ct, seed, spec)
			if err != nil {
				t.Fatal(err)
			}
			channels := false
			for _, e := range s {
				channels = channels || e.Channel
			}
			if !channels {
				continue // processor statuses only: signals can do those
			}
			rejected++
			err = liverun.Executable(s, n)
			named := false
			for _, e := range s {
				named = named || (e.Channel && err != nil && strings.Contains(err.Error(), e.String()))
			}
			if !named {
				t.Errorf("%s seed %d: got %v, want a rejection naming a channel event", ct, seed, err)
			}
		}
	}
	if rejected < 5*5 { // rolling/nested partition, flapping, asymmetric, mixed at least
		t.Errorf("only %d oracle-level schedules had channel events", rejected)
	}
}

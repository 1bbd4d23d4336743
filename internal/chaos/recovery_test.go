package chaos

import (
	"testing"
	"time"

	"repro/internal/failures"
	"repro/internal/props"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/types"
)

// TestAmnesiaCampaignsPass runs the amnesia and torn-write campaigns over
// several seeds and requires every check — conformance, recovery liveness,
// non-vacuity, rejoin safety — to pass, with the campaigns actually doing
// their job: amnesia crashes occur and WAL replays bring processors back.
func TestAmnesiaCampaignsPass(t *testing.T) {
	tears := 0
	for seed := int64(1); seed <= 3; seed++ {
		for _, ct := range []CampaignType{Amnesia, TornWrite} {
			r := Run(Config{Campaign: ct, Seed: seed})
			if r.Failed() {
				t.Errorf("%s seed=%d: %v", ct, seed, r.Violation)
				continue
			}
			if len(r.Cluster.Crashes) == 0 {
				t.Errorf("%s seed=%d: no amnesia crash recorded — campaign is vacuous", ct, seed)
			}
			recovered := 0
			for _, p := range r.Cluster.Procs.Members() {
				n := r.Cluster.Node(p)
				recovered += n.Recoveries()
				if ct == TornWrite && n.LastReplay() != nil && n.LastReplay().Truncated != "" {
					tears++
				}
			}
			if recovered == 0 {
				t.Errorf("%s seed=%d: crashes but no recovery — restarts never happened", ct, seed)
			}
			t.Logf("%s seed=%d: crashes=%d recoveries=%d deliveries=%d",
				ct, seed, len(r.Cluster.Crashes), recovered, r.Deliveries)
		}
	}
	// The torn-write campaign runs with λ = δ/4 precisely so that some
	// crashes land mid-write; across the seeds at least one replay must
	// have truncated a torn tail, or the campaign is not testing tearing.
	if tears == 0 {
		t.Error("torn-write campaign produced no torn-tail truncation across seeds 1–3")
	}
}

// TestAmnesiaBrokenRecoveryCaughtAndShrunk deliberately breaks the
// recovery path (restart from an empty snapshot instead of a WAL replay)
// and requires the harness to catch the corruption and delta-debug the
// schedule down to a smaller counterexample with the same violation.
func TestAmnesiaBrokenRecoveryCaughtAndShrunk(t *testing.T) {
	var first *Result
	for seed := int64(1); seed <= 10; seed++ {
		r := Run(Config{Campaign: Amnesia, Seed: seed,
			Window: 1500 * time.Millisecond, SkipRecoveryReplay: true})
		if r.Failed() {
			first = r
			break
		}
	}
	if first == nil {
		t.Fatal("broken recovery survived 10 amnesia campaigns undetected")
	}
	check := first.Violation.Check
	if check != "conformance" && check != "rejoin-safety" && check != "recovery-liveness" {
		t.Fatalf("unexpected violation class for broken recovery: %v", first.Violation)
	}
	t.Logf("caught: %v", first.Violation)

	min, st := ShrinkResult(first, 0)
	t.Logf("shrunk %d → %d events in %d runs", st.From, st.To, st.Runs)
	if !min.Failed() || min.Violation.Check != check {
		t.Fatalf("minimized run lost the violation: %v", min.Violation)
	}
	if st.To == 0 || st.To >= st.From {
		t.Fatalf("shrink did not reduce the schedule: %d → %d", st.From, st.To)
	}
	// A broken-recovery counterexample needs an amnesia event — the fault
	// the bug lives in — in its minimal schedule.
	hasAmnesia := false
	for _, e := range min.Schedule {
		if !e.Channel && e.Status == failures.Amnesia {
			hasAmnesia = true
		}
	}
	if !hasAmnesia {
		t.Fatalf("minimal schedule has no amnesia event: %v", min.Schedule)
	}
}

// TestAmnesiaTornTailTruncatesAndReconverges is the deterministic
// torn-tail regression: with λ = 5ms, a submission's WAL record is still
// in flight when the origin crashes 1ms later, so the device tears it.
// The replay must truncate (never panic), the processor must rejoin, and
// the full trace must still pass conformance and rejoin safety — the torn
// record cost only an unacknowledged submission, never a client-visible
// regression.
func TestAmnesiaTornTailTruncatesAndReconverges(t *testing.T) {
	c := stack.NewCluster(stack.Options{Seed: 7, N: 3, Delta: time.Millisecond, Log: &props.Log{},
		StorageLatency: 5 * time.Millisecond})
	victim := types.ProcID(1)
	healT := sim.Time(400 * time.Millisecond)

	c.Sim.At(sim.Time(200*time.Millisecond), func() { c.Bcast(victim, "torn-victim") })
	c.Sim.At(sim.Time(201*time.Millisecond), func() { c.Oracle.SetProc(victim, failures.Amnesia) })
	c.Sim.At(healT, func() { c.Oracle.SetProc(victim, failures.Good) })
	// Traffic from another node so the rejoined victim has something to
	// deliver after the heal.
	for i := 0; i < 10; i++ {
		v := types.Value("bg" + string(rune('a'+i)))
		c.Sim.At(sim.Time((100+50*time.Duration(i))*time.Millisecond), func() { c.Bcast(0, v) })
	}
	c.Sim.SetBudget(5_000_000)
	if err := c.Sim.Run(sim.Time(1500 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}

	n := c.Node(victim)
	if n.Recoveries() != 1 {
		t.Fatalf("victim recovered %d times, want 1", n.Recoveries())
	}
	snap := n.LastReplay()
	if snap == nil || snap.Truncated == "" {
		t.Fatalf("crash 1ms into a 5ms write did not tear the WAL tail: %+v", snap)
	}
	t.Logf("replay truncated: %s (kept %d records)", snap.Truncated, snap.Records)
	if len(c.Crashes) == 0 {
		t.Fatal("no crash snapshot recorded")
	}
	if _, _, err := Conformance(c.Log, c.Procs, c.Procs); err != nil {
		t.Fatalf("conformance after torn-tail recovery: %v", err)
	}
	if err := props.CheckRejoinSafety(c.Log, c.Crashes); err != nil {
		t.Fatalf("rejoin safety after torn-tail recovery: %v", err)
	}
	post := 0
	for _, d := range c.Deliveries(victim) {
		if d.Time > healT {
			post++
		}
	}
	if post == 0 {
		t.Fatal("rejoined victim delivered nothing after the heal")
	}
}

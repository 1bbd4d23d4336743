package vstoto

import (
	"strings"
	"testing"

	"repro/internal/ioa"
	"repro/internal/spec/tomachine"
	"repro/internal/spec/vsmachine"
	"repro/internal/types"
)

// The Section 6 invariant checker and the forward-simulation checker are
// only worth their cost if they actually fire on broken states. These
// mutation tests corrupt a healthy composed system in targeted ways and
// require the corresponding check to detect it.

// healthySystem builds a small established system with one confirmed value.
func healthySystem(t *testing.T) (*System, *SimulationChecker) {
	t.Helper()
	procs := types.RangeProcSet(2)
	qs := types.Majorities{Universe: procs}
	vs := vsmachine.New(procs, procs)
	procMap := make([]*Proc, procs.Size())
	for _, p := range procs.Members() {
		pr := NewProc(p, qs, procs)
		pr.TrackHistory = true
		procMap[p] = pr
	}
	sys := NewSystem(vs, procMap, qs)
	sim := NewSimulationChecker(sys)

	// Drive one value through: bcast at p0, label, gpsnd, vs-order,
	// gprcv everywhere, safe everywhere, confirm, brcv.
	p0, p1 := procMap[0], procMap[1]
	step := func(name string, act ioa.Action, f func() error) {
		t.Helper()
		if err := f(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := sys.CheckInvariants(); err != nil {
			t.Fatalf("invariants after %s: %v", name, err)
		}
		if err := sim.AfterStep(act); err != nil {
			t.Fatalf("simulation after %s: %v", name, err)
		}
	}
	step("bcast", tomachine.Bcast{A: "a", P: 0}, func() error { p0.Bcast("a"); return nil })
	step("label", LabelAct{A: "a", P: 0}, func() error { p0.Label(); return nil })
	var lv LabeledValue
	step("gpsnd", vsmachine.Gpsnd{P: 0}, func() error {
		lv = p0.GpsndValue()
		vs.ApplyGpsnd(lv, 0)
		return nil
	})
	step("vs-order", vsmachine.VSOrder{P: 0, G: types.G0()}, func() error {
		return vs.ApplyVSOrder(lv, 0, types.G0())
	})
	step("gprcv@0", vsmachine.Gprcv{P: 0, Q: 0}, func() error {
		if err := vs.ApplyGprcv(lv, 0, 0); err != nil {
			return err
		}
		p0.GprcvValue(lv)
		return nil
	})
	step("gprcv@1", vsmachine.Gprcv{P: 0, Q: 1}, func() error {
		if err := vs.ApplyGprcv(lv, 0, 1); err != nil {
			return err
		}
		p1.GprcvValue(lv)
		return nil
	})
	step("safe@0", vsmachine.Safe{P: 0, Q: 0}, func() error {
		if err := vs.ApplySafe(lv, 0, 0); err != nil {
			return err
		}
		p0.SafeValue(lv)
		return nil
	})
	step("confirm@0", ConfirmAct{P: 0}, func() error { p0.Confirm(); return nil })
	return sys, sim
}

func requireViolation(t *testing.T, sys *System, wantSubstring string) {
	t.Helper()
	err := sys.CheckInvariants()
	if err == nil {
		t.Fatalf("corruption not detected (want %q)", wantSubstring)
	}
	if !strings.Contains(err.Error(), wantSubstring) {
		t.Fatalf("wrong violation: got %v, want substring %q", err, wantSubstring)
	}
}

func TestMutationContentDisagreement(t *testing.T) {
	sys, _ := healthySystem(t)
	// Bind an existing label to a different value at p1: allcontent stops
	// being a function (Lemma 6.5). The automaton never rebinds a label, so
	// the corruption writes the run directly.
	sys.Procs[1].content.runs[0].vals[0] = "DIFFERENT"
	requireViolation(t, sys, "lemma 6.5")
}

func TestMutationHighPrimaryAboveView(t *testing.T) {
	sys, _ := healthySystem(t)
	sys.Procs[0].HighPrimary = types.ViewID{Epoch: 99, Proc: 0}
	requireViolation(t, sys, "lemma 6.1")
	// (detected as 6.12/6.11 once views agree; with the current view g0 it
	// shows up through the 6.12 bound on the state summary)
}

func TestMutationStatusWithoutView(t *testing.T) {
	sys, _ := healthySystem(t)
	sys.Procs[1].Current = types.View{}
	requireViolation(t, sys, "lemma 6.1")
}

func TestMutationBufferForeignLabel(t *testing.T) {
	sys, _ := healthySystem(t)
	sys.Procs[0].Buffer = append(sys.Procs[0].Buffer,
		types.Label{ID: types.G0(), Seqno: 9, Origin: 1}) // wrong origin
	requireViolation(t, sys, "lemma 6.3")
}

func TestMutationConfirmBeyondOrder(t *testing.T) {
	sys, _ := healthySystem(t)
	sys.Procs[0].NextConfirm = len(sys.Procs[0].Order) + 5
	requireViolation(t, sys, "lemma 6.22(2)")
}

func TestMutationDivergentConfirms(t *testing.T) {
	sys, _ := healthySystem(t)
	// Give p1 a confirmed order that contradicts p0's.
	alien := types.Label{ID: types.G0(), Seqno: 7, Origin: 1}
	sys.Procs[1].content.set(alien, "z")
	sys.Procs[1].Order = []types.Label{alien}
	sys.Procs[1].NextConfirm = 2
	err := sys.CheckInvariants()
	if err == nil {
		t.Fatal("divergent confirms not detected")
	}
	// Several invariants can fire first (the alien label already violates
	// the Lemma 6.4 label bound); any detection is what matters here.
	t.Logf("detected as: %v", err)
}

func TestMutationSimulationCatchesPhantomDelivery(t *testing.T) {
	sys, sim := healthySystem(t)
	// p1 "delivers" without the value being confirmed at it in order:
	// bump nextreport beyond nextconfirm is caught by the basic bound; so
	// instead deliver a value at the abstract level that was never
	// to-ordered: forge a brcv action for a value not in the shadow queue.
	p1 := sys.Procs[1]
	p1.Order = append([]types.Label(nil), sys.Procs[0].Order...)
	p1.NextConfirm = 2
	p1.NextReport = 2
	// f(x).next[1] = 2 but the shadow machine still has next[1] = 1.
	if err := sim.checkCorrespondence(); err == nil {
		t.Fatal("phantom delivery not detected by the simulation checker")
	}
}

func TestMutationSimulationCatchesReorderedQueue(t *testing.T) {
	sys, sim := healthySystem(t)
	// Inject a second confirmed label at p0 whose value was never
	// submitted through bcast: the shadow's to-order must fail.
	ghost := types.Label{ID: types.G0(), Seqno: 5, Origin: 0}
	p0 := sys.Procs[0]
	p0.content.set(ghost, "ghost")
	p0.Order = append(p0.Order, ghost)
	p0.safe.raise(ghost.Origin, ghost.Seqno)
	p0.NextConfirm++
	if err := sim.AfterStep(ConfirmAct{P: 0}); err == nil {
		t.Fatal("unsubmitted confirmed value not detected")
	}
}

func TestMutationDeepLemma621OrderGap(t *testing.T) {
	sys, _ := healthySystem(t)
	// Fabricate an order at p0 that skips an earlier same-origin label
	// known to allcontent.
	p0 := sys.Procs[0]
	skipped := types.Label{ID: types.G0(), Seqno: 5, Origin: 0}
	later := types.Label{ID: types.G0(), Seqno: 6, Origin: 0}
	p0.content.set(skipped, "s")
	p0.content.set(later, "l")
	p0.Order = append(p0.Order, later) // later without skipped
	err := sys.CheckDeepInvariants()
	if err == nil || !strings.Contains(err.Error(), "lemma 6.21") {
		t.Fatalf("order gap not detected: %v", err)
	}
}

func TestMutationDeepLemma620SafeWithoutBuildorder(t *testing.T) {
	sys, _ := healthySystem(t)
	// Mark a label safe at p0 that p1's buildorder does not carry.
	p0, p1 := sys.Procs[0], sys.Procs[1]
	ghost := types.Label{ID: types.G0(), Seqno: 5, Origin: 0}
	p0.content.set(ghost, "g")
	p0.Order = []types.Label{ghost}
	p0.safe.raise(ghost.Origin, ghost.Seqno)
	_ = p1
	err := sys.CheckDeepInvariants()
	if err == nil {
		t.Fatal("safe label without member buildorder not detected")
	}
	t.Logf("detected as: %v", err)
}

func TestMutationDeepLemma613HighprimaryRollback(t *testing.T) {
	sys, _ := healthySystem(t)
	p0 := sys.Procs[0]
	// Pretend p0 established a later primary view and moved past it, but
	// with highprimary rolled back below it.
	v2 := types.View{ID: types.ViewID{Epoch: 2, Proc: 0}, Set: types.RangeProcSet(2)}
	v3 := types.View{ID: types.ViewID{Epoch: 3, Proc: 0}, Set: types.RangeProcSet(2)}
	if err := sys.VS.ApplyCreateview(v2); err != nil {
		t.Fatal(err)
	}
	if err := sys.VS.ApplyCreateview(v3); err != nil {
		t.Fatal(err)
	}
	for _, p := range sys.VS.Procs().Members() {
		if err := sys.VS.ApplyNewview(v3, p); err != nil {
			t.Fatal(err)
		}
		sys.Procs[p].Newview(v3)
		sys.Procs[p].Status = StatusNormal
		sys.Procs[p].Established[v3.ID] = true
		sys.Procs[p].HighPrimary = v3.ID
	}
	p0.Established[v2.ID] = true
	p0.HighPrimary = types.G0() // below established primary v2
	err := sys.CheckDeepInvariants()
	if err == nil || !strings.Contains(err.Error(), "lemma 6.13") {
		t.Fatalf("highprimary rollback not detected: %v", err)
	}
}

// TestLabelRunsInvariantFires corrupts the dense label state in each way
// its premises rule out and requires checkLabelRuns (the last check of
// CheckDeepInvariants) to name it.
func TestLabelRunsInvariantFires(t *testing.T) {
	g0 := types.G0()
	for _, c := range []struct {
		name    string
		corrupt func(p0 *Proc)
		want    string
	}{
		{"content hole", func(p0 *Proc) { p0.content.set(types.Label{ID: g0, Seqno: 3, Origin: 1}, "x") },
			"label runs: content_p0 of (g1.0, p1) has 2 holes below seqno 3"},
		{"safe beyond content", func(p0 *Proc) { p0.safe.raise(0, 2) },
			"label runs: safe-labels_p0 holds ⟨g1.0#2@p0⟩ without content"},
		{"exchange safe in recovery", func(p0 *Proc) { p0.safe.exch, p0.Status = true, StatusCollect },
			"label runs: p0 holds the exchange safe in g1.0 with status collect"},
		{"old-view content outside the exchange", func(p0 *Proc) {
			p0.content.set(types.Label{ID: types.ViewID{Epoch: 0, Proc: 1}, Seqno: 1, Origin: 1}, "old")
			p0.safe.exch = true
		}, "label runs: content_p0 holds ⟨g0.1#1@p1⟩, which fullorder(gotstate) lacks"},
	} {
		sys, _ := healthySystem(t)
		if err := sys.checkLabelRuns(); err != nil {
			t.Fatalf("%s: healthy state fails: %v", c.name, err)
		}
		c.corrupt(sys.Procs[0])
		if err := sys.checkLabelRuns(); err == nil || err.Error() != c.want {
			t.Errorf("%s: checkLabelRuns = %v, want %q", c.name, err, c.want)
		}
	}
}

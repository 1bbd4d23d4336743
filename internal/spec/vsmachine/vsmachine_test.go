package vsmachine

import (
	"math/rand"
	"testing"

	"repro/internal/ioa"
	"repro/internal/types"
)

func v(epoch int64, proc types.ProcID, members ...types.ProcID) types.View {
	return types.View{ID: types.ViewID{Epoch: epoch, Proc: proc}, Set: types.NewProcSet(members...)}
}

func TestInitialState(t *testing.T) {
	m := New(types.RangeProcSet(3), types.NewProcSet(0, 1))
	if got := m.CurrentViewID[0]; got != types.G0() {
		t.Errorf("p0 starts in %v, want g0", got)
	}
	if got := m.CurrentViewID[2]; !got.IsBottom() {
		t.Errorf("p2 starts in %v, want ⊥", got)
	}
	if _, ok := m.View(types.G0()); !ok {
		t.Error("initial view not created")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCreateviewRequiresIncreasingIDs(t *testing.T) {
	m := New(types.RangeProcSet(3), types.RangeProcSet(3))
	v2 := v(2, 0, 0, 1)
	if !m.CreateviewEnabled(v2) {
		t.Fatal("higher view not creatable")
	}
	if err := m.ApplyCreateview(v2); err != nil {
		t.Fatal(err)
	}
	// Strong machine: ids must strictly increase, even if unique.
	if m.CreateviewEnabled(v(2, 0, 0)) {
		t.Error("duplicate id creatable")
	}
	if m.CreateviewEnabled(v(1, 5, 0)) {
		t.Error("id below max creatable in strong machine")
	}
	if err := m.ApplyCreateview(v(1, 5, 0)); err == nil {
		t.Error("ApplyCreateview below max succeeded")
	}
	// Bottom id never creatable.
	if m.CreateviewEnabled(types.View{ID: types.Bottom, Set: types.NewProcSet(0)}) {
		t.Error("⊥ view creatable")
	}
}

func TestWeakMachineOnlyRequiresUniqueIDs(t *testing.T) {
	m := NewWeak(types.RangeProcSet(3), types.RangeProcSet(3))
	if err := m.ApplyCreateview(v(5, 0, 0, 1)); err != nil {
		t.Fatal(err)
	}
	// Out-of-order creation is fine as long as the id is fresh.
	if !m.CreateviewEnabled(v(3, 0, 0, 2)) {
		t.Error("weak machine rejects out-of-order fresh id")
	}
	if m.CreateviewEnabled(v(5, 0, 1, 2)) {
		t.Error("weak machine accepts duplicate id")
	}
}

func TestNewviewRules(t *testing.T) {
	m := New(types.RangeProcSet(3), types.NewProcSet(0, 1))
	v2 := v(2, 0, 0, 2)
	if err := m.ApplyCreateview(v2); err != nil {
		t.Fatal(err)
	}
	// Non-member may not learn the view (signature).
	if m.NewviewEnabled(v2, 1) {
		t.Error("newview enabled for non-member")
	}
	// Member with ⊥ current view may.
	if !m.NewviewEnabled(v2, 2) {
		t.Error("newview not enabled for ⊥ member")
	}
	if err := m.ApplyNewview(v2, 2); err != nil {
		t.Fatal(err)
	}
	if m.CurrentViewID[2] != v2.ID {
		t.Error("current view not updated")
	}
	// Monotonicity: cannot install an older view.
	if m.NewviewEnabled(types.View{ID: types.G0(), Set: types.NewProcSet(0, 1, 2)}, 2) {
		t.Error("newview to older id enabled")
	}
	// A view value must match what was created.
	forged := types.View{ID: v2.ID, Set: types.NewProcSet(0, 1, 2)}
	if m.NewviewEnabled(forged, 0) {
		t.Error("newview enabled for forged membership")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGpsndWhileBottomIsIgnored(t *testing.T) {
	m := New(types.RangeProcSet(2), types.NewProcSet(0))
	m.ApplyGpsnd("orphan", 1) // p1 has ⊥
	for _, c := range m.Created {
		if len(c.Queue) != 0 {
			t.Fatal("orphan message queued")
		}
	}
	if len(m.Pending(1, types.G0())) != 0 {
		t.Fatal("orphan message pending")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSendOrderDeliverSafeLifecycle(t *testing.T) {
	p0 := types.RangeProcSet(2)
	m := New(p0, p0)
	g := types.G0()

	m.ApplyGpsnd("m1", 0)
	m.ApplyGpsnd("m2", 0)
	if !m.VSOrderEnabled("m1", 0, g) || m.VSOrderEnabled("m2", 0, g) {
		t.Fatal("vs-order enabling wrong (FIFO per sender)")
	}
	if err := m.ApplyVSOrder("m1", 0, g); err != nil {
		t.Fatal(err)
	}
	if err := m.ApplyVSOrder("m2", 0, g); err != nil {
		t.Fatal(err)
	}

	// Safe requires every member's next to pass the message; initially no
	// one has received anything.
	if m.SafeEnabled("m1", 0, 0) {
		t.Fatal("safe enabled before any delivery")
	}
	if err := m.ApplyGprcv("m1", 0, 0); err != nil {
		t.Fatal(err)
	}
	if m.SafeEnabled("m1", 0, 0) {
		t.Fatal("safe enabled before all members received")
	}
	if err := m.ApplyGprcv("m1", 0, 1); err != nil {
		t.Fatal(err)
	}
	if !m.SafeEnabled("m1", 0, 0) {
		t.Fatal("safe not enabled after all members received")
	}
	// Safe is per-receiver and ordered: m2 cannot be safe before m1.
	if m.SafeEnabled("m2", 0, 1) {
		t.Fatal("safe out of order enabled")
	}
	if err := m.ApplySafe("m1", 0, 0); err != nil {
		t.Fatal(err)
	}
	if m.NextSafe(0, g) != 2 {
		t.Errorf("next-safe = %d", m.NextSafe(0, g))
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGprcvOnlyInCurrentView(t *testing.T) {
	p0 := types.RangeProcSet(2)
	m := New(p0, p0)
	m.ApplyGpsnd("old", 0)
	if err := m.ApplyVSOrder("old", 0, types.G0()); err != nil {
		t.Fatal(err)
	}
	// p1 moves to a newer view; the old-view message is no longer
	// deliverable to it.
	v2 := v(2, 1, 0, 1)
	if err := m.ApplyCreateview(v2); err != nil {
		t.Fatal(err)
	}
	if err := m.ApplyNewview(v2, 1); err != nil {
		t.Fatal(err)
	}
	if m.GprcvEnabled("old", 0, 1) {
		t.Fatal("delivery enabled outside the sending view")
	}
	// p0 (still in g0) can receive it.
	if !m.GprcvEnabled("old", 0, 0) {
		t.Fatal("delivery not enabled in the sending view")
	}
}

func TestDerivedViewHelpers(t *testing.T) {
	m := New(types.RangeProcSet(2), types.RangeProcSet(2))
	if err := m.ApplyCreateview(v(2, 1, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := m.ApplyCreateview(v(3, 0, 0)); err != nil {
		t.Fatal(err)
	}
	ids := m.CreatedViewIDs()
	if len(ids) != 3 || !ids[0].Less(ids[1]) || !ids[1].Less(ids[2]) {
		t.Fatalf("CreatedViewIDs = %v", ids)
	}
	if got := m.MaxCreatedViewID(); got != (types.ViewID{Epoch: 3, Proc: 0}) {
		t.Errorf("MaxCreatedViewID = %v", got)
	}
	cv, ok := m.CurrentView(0)
	if !ok || cv.ID != types.G0() {
		t.Errorf("CurrentView(0) = %v, %t", cv, ok)
	}
}

// TestRandomizedSpecSelfConformance runs the spec automaton under its own
// random view proposals and random client sends, with the Lemma 4.1
// invariants checked after every step by the executor.
func TestRandomizedSpecSelfConformance(t *testing.T) {
	procs := types.RangeProcSet(4)
	auto := NewAuto(procs, types.NewProcSet(0, 1))
	exec := ioa.NewExecutor(11, auto)
	auto.Proposer = RandomViewProposer(auto, exec.Rand(), 0.05)
	var counter int
	exec.SetEnvironment(ioa.EnvironmentFunc(func(rng *rand.Rand) ioa.Action {
		counter++
		return Gpsnd{M: counter, P: types.ProcID(rng.Intn(4))}
	}))
	if err := exec.Run(4000); err != nil {
		t.Fatalf("spec execution violated its own invariants: %v", err)
	}
	if len(auto.M.Created) < 2 {
		t.Error("no views were proposed/created during the run")
	}
}

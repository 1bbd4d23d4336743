package vsmachine

import (
	"cmp"
	"reflect"
	"testing"

	"repro/internal/ioa"
	"repro/internal/types"
)

// populate drives a machine into a nontrivial state.
func populate(t *testing.T, m *Machine) {
	t.Helper()
	g := types.G0()
	m.ApplyGpsnd("m1", 0)
	m.ApplyGpsnd("m2", 0)
	if err := m.ApplyVSOrder("m1", 0, g); err != nil {
		t.Fatal(err)
	}
	if err := m.ApplyGprcv("m1", 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.ApplyGprcv("m1", 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.ApplySafe("m1", 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := m.ApplyCreateview(v(2, 1, 0, 1)); err != nil {
		t.Fatal(err)
	}
}

// fingerprint is the machine's canonical encoding as a comparable value.
func fingerprint(m *Machine) string { return string(m.AppendFingerprint(nil)) }

func TestCloneIsDeepAndEquivalent(t *testing.T) {
	m := New(types.RangeProcSet(2), types.RangeProcSet(2))
	populate(t, m)
	c := m.CloneFor(WritesAll, nil) // every part copied
	if fingerprint(m) != fingerprint(c) {
		t.Fatalf("clone fingerprint differs:\n%x\nvs\n%x", fingerprint(m), fingerprint(c))
	}
	// Mutating the clone must not affect the original.
	c.ApplyGpsnd("extra", 1)
	if err := c.ApplyNewview(v(2, 1, 0, 1), 1); err != nil {
		t.Fatal(err)
	}
	if fingerprint(m) == fingerprint(c) {
		t.Fatal("mutating the clone changed nothing observable")
	}
	if m.CurrentViewID[1] != types.G0() {
		t.Fatal("clone mutation leaked into the original")
	}
	if len(m.Pending(1, types.G0())) != 0 {
		t.Fatal("clone gpsnd leaked into the original's pending")
	}
}

// TestCloneForIsolatesEveryAction: for each action of the signature, the
// copy CloneFor makes takes the action without the original noticing —
// neither its encoding nor any map or sequence it holds changes — and two
// copies of one original do not see each other's appends.
func TestCloneForIsolatesEveryAction(t *testing.T) {
	m := New(types.RangeProcSet(2), types.RangeProcSet(2))
	populate(t, m)
	g := types.G0()
	if err := m.ApplyVSOrder("m2", 0, g); err != nil {
		t.Fatal(err)
	}
	for _, msg := range []Msg{"m3", "m4", "m5"} { // leaves pending[p1,g] spare capacity
		m.ApplyGpsnd(msg, 1)
	}
	want, wantFP := m.CloneFor(WritesAll, nil), fingerprint(m)
	for _, act := range []ioa.Action{
		Gpsnd{M: "m6", P: 1},
		VSOrder{M: "m3", P: 1, G: g},
		Gprcv{M: "m2", P: 0, Q: 0},
		Safe{M: "m1", P: 0, Q: 1},
		Newview{V: v(2, 1, 0, 1), P: 1},
		Createview{V: v(3, 0, 0, 1)},
	} {
		a := &Auto{M: m.CloneFor(writesOf(act), nil)}
		if a.Classify(act) == ioa.Input {
			a.Input(act)
		} else {
			a.Perform(act)
		}
		if fingerprint(a.M) == wantFP {
			t.Errorf("%v changed nothing on the copy", act)
		}
		if fingerprint(m) != wantFP || !reflect.DeepEqual(m, want) {
			t.Fatalf("%v on a copy changed the original", act)
		}
	}

	a, b := m.CloneFor(WritesSlots, nil), m.CloneFor(WritesSlots, nil)
	a.ApplyGpsnd("a", 1)
	b.ApplyGpsnd("b", 1)
	if pa, pb := a.Pending(1, g), b.Pending(1, g); pa[3] != "a" || pb[3] != "b" {
		t.Fatalf("sibling copies share an append: %v and %v", pa, pb)
	}
}

// TestScratchCopyKept: a copy built in a Scratch and kept in an Arena
// survives the next copy built there, the pending sequence and queue
// gpsnd and vs-order grew there included; a kept copy shares no sequence
// with the machine it copies; and a Reset arena hands its storage out
// again.
func TestScratchCopyKept(t *testing.T) {
	m := New(types.RangeProcSet(2), types.RangeProcSet(2))
	populate(t, m)
	var sc Scratch
	var ar Arena
	m.CloneFor(WritesSlots, &sc).ApplyGpsnd("w", 0) // sizes the buffer the next copies reuse
	a := m.CloneFor(WritesSlots, &sc)
	a.ApplyGpsnd("a", 1)
	wantA := fingerprint(a)
	kept := ar.Keep(a)
	if kept == a || fingerprint(kept) != wantA {
		t.Fatalf("Keep did not move the copy out of the scratch")
	}
	b := m.CloneFor(WritesAll, &sc)
	b.ApplyGpsnd("b", 0)
	if err := b.ApplyNewview(v(2, 1, 0, 1), 1); err != nil {
		t.Fatal(err)
	}
	if fingerprint(kept) != wantA {
		t.Fatalf("the next copy into the scratch changed a kept one")
	}
	// vs-order grows a queue in the scratch: the kept copy takes its own,
	// which a copy of another machine growing its queue there leaves alone.
	d := m.CloneFor(WritesSlots|WritesQueues, &sc)
	if err := d.ApplyVSOrder("m2", 0, types.G0()); err != nil {
		t.Fatal(err)
	}
	wantD, keptD := fingerprint(d), ar.Keep(d)
	other := New(types.RangeProcSet(2), types.RangeProcSet(2))
	other.ApplyGpsnd("z", 0)
	if err := other.CloneFor(WritesSlots|WritesQueues, &sc).ApplyVSOrder("z", 0, types.G0()); err != nil {
		t.Fatal(err)
	}
	if fingerprint(keptD) != wantD || keptD.sc != nil {
		t.Fatalf("the next copy into the scratch changed a kept one's queue")
	}
	c := m.CloneFor(0, &sc)
	if err := c.ApplyCreateview(v(3, 0, 0, 1)); err != nil {
		t.Fatal(err)
	}
	k := ar.Keep(c)
	if &k.slots[0] == &m.slots[0] || &k.Created[0] == &m.Created[0] || &k.CurrentViewID[0] == &m.CurrentViewID[0] ||
		&k.slots[0].pending[0] == &m.slots[0].pending[0] || &k.Created[0].Queue[0] == &m.Created[0].Queue[0] {
		t.Fatalf("a kept copy shares a sequence with the machine it copies")
	}
	// After a Reset the arena carves the same storage again.
	inUse := ar.InUse()
	ar.Reset()
	if ar.InUse() != 0 {
		t.Fatalf("Reset left %d bytes in use", ar.InUse())
	}
	if again := ar.Keep(c); again != kept || ar.InUse() > inUse {
		t.Fatalf("a Reset arena allocated instead of reusing its storage")
	}
}

// writesOf is the part of the machine act writes.
func writesOf(act ioa.Action) Writes {
	switch act.(type) {
	case Createview:
		return 0
	case Newview:
		return WritesCurrent
	case Gpsnd, Gprcv, Safe:
		return WritesSlots
	case VSOrder:
		return WritesSlots | WritesQueues
	}
	return WritesAll
}

// cmpPG orders (processor, view) keys by processor, then view.
func cmpPG(a, b pg) int {
	if c := cmp.Compare(a.P, b.P); c != 0 {
		return c
	}
	return a.G.Cmp(b.G)
}

func TestFingerprintDistinguishesStates(t *testing.T) {
	base := func() *Machine { return New(types.RangeProcSet(2), types.RangeProcSet(2)) }
	a := base()
	variants := []func(*Machine){
		func(m *Machine) { m.ApplyGpsnd("x", 0) },
		func(m *Machine) {
			m.ApplyGpsnd("x", 0)
			if err := m.ApplyVSOrder("x", 0, types.G0()); err != nil {
				panic(err)
			}
		},
		func(m *Machine) {
			if err := m.ApplyCreateview(v(2, 0, 0, 1)); err != nil {
				panic(err)
			}
		},
		func(m *Machine) {
			if err := m.ApplyCreateview(v(2, 0, 0, 1)); err != nil {
				panic(err)
			}
			if err := m.ApplyNewview(v(2, 0, 0, 1), 0); err != nil {
				panic(err)
			}
		},
	}
	seen := map[string]int{fingerprint(a): -1}
	for i, mutate := range variants {
		m := base()
		mutate(m)
		fp := fingerprint(m)
		if prev, dup := seen[fp]; dup {
			t.Fatalf("variants %d and %d share a fingerprint", prev, i)
		}
		seen[fp] = i
	}
}

func TestFingerprintCanonicalAcrossInsertionOrder(t *testing.T) {
	// Two machines reaching the same state through different map insertion
	// orders must fingerprint identically.
	a := New(types.RangeProcSet(3), types.RangeProcSet(3))
	b := New(types.RangeProcSet(3), types.RangeProcSet(3))
	a.ApplyGpsnd("m", 0)
	a.ApplyGpsnd("n", 2)
	b.ApplyGpsnd("n", 2)
	b.ApplyGpsnd("m", 0)
	if fingerprint(a) != fingerprint(b) {
		t.Fatal("fingerprint depends on insertion order")
	}
}

// --- GapMachine direct tests ----------------------------------------------

func gapFixture(t *testing.T) *GapMachine {
	t.Helper()
	m := NewGap(types.RangeProcSet(2), types.RangeProcSet(2))
	g := types.G0()
	for _, msg := range []string{"a", "b", "c"} {
		m.ApplyGpsnd(msg, 0)
		if err := m.ApplyVSOrder(msg, 0, g); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func TestGapDeliveryAllowsSkips(t *testing.T) {
	m := gapFixture(t)
	if !m.GprcvAtEnabled(0, 2) {
		t.Fatal("skip-ahead delivery not enabled")
	}
	e, err := m.ApplyGprcvAt(0, 2) // skip "a", take "b"
	if err != nil {
		t.Fatal(err)
	}
	if e.M != "b" {
		t.Fatalf("delivered %v, want b", e.M)
	}
	// The skipped index is gone for good.
	if m.GprcvAtEnabled(0, 1) {
		t.Fatal("skipped index deliverable again")
	}
	// Beyond the queue is disabled.
	if m.GprcvAtEnabled(0, 4) {
		t.Fatal("past-end delivery enabled")
	}
	if _, err := m.ApplyGprcvAt(0, 1); err == nil {
		t.Fatal("ApplyGprcvAt on skipped index succeeded")
	}
}

func TestGapSafeRequiresContiguousPrefixEverywhere(t *testing.T) {
	m := gapFixture(t)
	// p0 receives 1 then 3 (skipping 2); p1 receives 1, 2, 3.
	mustAt(t, m, 0, 1)
	mustAt(t, m, 0, 3)
	mustAt(t, m, 1, 1)
	mustAt(t, m, 1, 2)
	mustAt(t, m, 1, 3)
	// Index 1 is contiguous at both: safe.
	if !m.SafeAtEnabled(1, 1) {
		t.Fatal("safe(1) not enabled")
	}
	if _, err := m.ApplySafeAt(1, 1); err != nil {
		t.Fatal(err)
	}
	// Index 2 was skipped at p0: its contiguous prefix froze at 1, so
	// safe(2) can never fire.
	if m.SafeAtEnabled(1, 2) {
		t.Fatal("safe(2) enabled despite p0's gap")
	}
	// Safe must proceed in order: even if 2 were fine, 3 cannot come first.
	if m.SafeAtEnabled(1, 3) {
		t.Fatal("out-of-order safe enabled")
	}
	if _, err := m.ApplySafeAt(0, 2); err == nil {
		t.Fatal("ApplySafeAt on gapped prefix succeeded")
	}
}

func TestGapPerSenderGapFreeRestriction(t *testing.T) {
	m := gapFixture(t) // three messages, all from p0
	m.PerSenderGapFree = true
	// Skipping within the same sender is forbidden: index 2 would skip
	// index 1 from the same sender.
	if m.GprcvAtEnabled(0, 2) {
		t.Fatal("same-sender skip enabled in PerSenderGapFree mode")
	}
	mustAt(t, m, 0, 1)
	if !m.GprcvAtEnabled(0, 2) {
		t.Fatal("in-order delivery blocked")
	}
	// Mixed senders: add a message from p1, then skipping p0's message to
	// reach p1's is allowed, but p0 is then dead to this receiver.
	m2 := NewGap(types.RangeProcSet(2), types.RangeProcSet(2))
	m2.PerSenderGapFree = true
	g := types.G0()
	m2.ApplyGpsnd("a0", 0)
	m2.ApplyGpsnd("b0", 0)
	m2.ApplyGpsnd("a1", 1)
	for _, msg := range []struct {
		m Msg
		p types.ProcID
	}{{"a0", 0}, {"b0", 0}, {"a1", 1}} {
		if err := m2.ApplyVSOrder(msg.m, msg.p, g); err != nil {
			t.Fatal(err)
		}
	}
	if !m2.GprcvAtEnabled(0, 3) {
		t.Fatal("cross-sender skip not enabled")
	}
	if _, err := m2.ApplyGprcvAt(0, 3); err != nil {
		t.Fatal(err)
	}
	// p0's sender was skipped; nothing more from p0 may be delivered here.
	m2.ApplyGpsnd("c0", 0)
	if err := m2.ApplyVSOrder("c0", 0, g); err != nil {
		t.Fatal(err)
	}
	if m2.GprcvAtEnabled(0, 4) {
		t.Fatal("delivery from a skipped sender enabled")
	}
}

func mustAt(t *testing.T, m *GapMachine, q types.ProcID, k int) {
	t.Helper()
	if _, err := m.ApplyGprcvAt(q, k); err != nil {
		t.Fatal(err)
	}
}

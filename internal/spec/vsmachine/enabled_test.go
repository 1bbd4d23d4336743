package vsmachine

import (
	"fmt"
	"testing"

	"repro/internal/types"
)

// TestEnabledEnumerationStable pins the enumeration order of Enabled as a
// pure function of the machine state. The seeded executor resolves its
// nondeterminism by drawing a random index into this slice, so if Go's
// randomized map iteration leaked into the order, identical seeds would
// take different runs (this is exactly the E6 divergence the parallel
// determinism gate caught). The state below puts several entries in both
// sequences Enabled walks (Created, the pending slots).
func TestEnabledEnumerationStable(t *testing.T) {
	procs := types.NewProcSet(0, 1, 2, 3)
	m := New(procs, procs)
	// Several created-but-nowhere-installed views: each contributes one
	// newview action per member, enumerated from Created.
	for e := int64(2); e <= 5; e++ {
		v := types.View{ID: types.ViewID{Epoch: e, Proc: types.ProcID(e % 4)}, Set: procs}
		if err := m.ApplyCreateview(v); err != nil {
			t.Fatal(err)
		}
	}
	// A pending queue per processor: each contributes one vs-order action,
	// enumerated from the slots.
	for _, p := range procs.Members() {
		m.ApplyGpsnd(fmt.Sprintf("m%v", p), p)
	}
	a := &Auto{M: m}
	want := fmt.Sprint(a.Enabled(nil))
	if want == "[]" {
		t.Fatal("state enables no actions; the test is vacuous")
	}
	for i := 0; i < 100; i++ {
		if got := fmt.Sprint(a.Enabled(nil)); got != want {
			t.Fatalf("enumeration %d diverged:\n%s\nvs first:\n%s", i, got, want)
		}
	}
}

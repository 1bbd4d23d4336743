package vstoto

import (
	"testing"
	"testing/quick"

	"repro/internal/types"
)

func lbl(epoch int64, seq int, origin types.ProcID) types.Label {
	return types.Label{ID: types.ViewID{Epoch: epoch, Proc: 0}, Seqno: seq, Origin: origin}
}

func TestSummaryConfirm(t *testing.T) {
	ls := []types.Label{lbl(1, 1, 0), lbl(1, 2, 0), lbl(1, 3, 0)}
	cases := []struct {
		next int
		want int
	}{
		{1, 0}, {2, 1}, {4, 3},
		{9, 3}, // next beyond ord: clipped to length
		{0, 0}, // degenerate
	}
	for _, c := range cases {
		x := &Summary{Ord: ls, Next: c.next}
		if got := len(x.Confirm()); got != c.want {
			t.Errorf("next=%d: confirm length %d, want %d", c.next, got, c.want)
		}
	}
}

// gotStateOf returns the gotstate holding m's pairs, added in map order.
func gotStateOf(m map[types.ProcID]*Summary) GotState {
	var y GotState
	for q, x := range m {
		y = y.with(q, x)
	}
	return y
}

func TestGotStateAggregates(t *testing.T) {
	la, lb, lc := lbl(1, 1, 0), lbl(1, 1, 1), lbl(2, 1, 0)
	y := gotStateOf(map[types.ProcID]*Summary{
		0: {Con: map[types.Label]types.Value{la: "a", lc: "c"}, Ord: []types.Label{la, lc}, Next: 3, High: types.ViewID{Epoch: 2, Proc: 0}},
		1: {Con: map[types.Label]types.Value{lb: "b"}, Ord: []types.Label{lb}, Next: 1, High: types.G0()},
		2: {Con: map[types.Label]types.Value{}, Next: 2, High: types.ViewID{Epoch: 2, Proc: 0}},
	})
	kc := refKnownContent(y)
	if len(kc) != 3 || kc[la] != "a" || kc[lb] != "b" || kc[lc] != "c" {
		t.Fatalf("knowncontent = %v", kc)
	}
	if got := y.MaxPrimary(); got != (types.ViewID{Epoch: 2, Proc: 0}) {
		t.Errorf("MaxPrimary = %v", got)
	}
	reps := y.Reps()
	if len(reps) != 2 || reps[0] != 0 || reps[1] != 2 {
		t.Fatalf("Reps = %v", reps)
	}
	// ChosenRep: highest processor id among reps.
	if got := y.ChosenRep(); got != 2 {
		t.Errorf("ChosenRep = %v", got)
	}
	// ShortOrder = chosen rep's ord (empty for p2).
	if got := y.ShortOrder(); len(got) != 0 {
		t.Errorf("ShortOrder = %v", got)
	}
	// FullOrder = shortorder + remaining knowncontent in label order.
	fo := y.FullOrder()
	want := []types.Label{la, lb, lc}
	if len(fo) != 3 {
		t.Fatalf("FullOrder = %v", fo)
	}
	for i := range want {
		if fo[i] != want[i] {
			t.Fatalf("FullOrder = %v, want %v", fo, want)
		}
	}
	if got := y.MaxNextConfirm(); got != 3 {
		t.Errorf("MaxNextConfirm = %d", got)
	}
}

func TestFullOrderKeepsShortOrderPrefixAndDedups(t *testing.T) {
	la, lb := lbl(1, 1, 0), lbl(1, 2, 0)
	// The rep's order deliberately disagrees with label order (lb first).
	y := gotStateOf(map[types.ProcID]*Summary{
		5: {Con: map[types.Label]types.Value{la: "a", lb: "b"}, Ord: []types.Label{lb, la}, Next: 1, High: types.ViewID{Epoch: 3, Proc: 0}},
		1: {Con: map[types.Label]types.Value{la: "a"}, Ord: []types.Label{la}, Next: 1, High: types.G0()},
	})
	fo := y.FullOrder()
	if len(fo) != 2 || fo[0] != lb || fo[1] != la {
		t.Fatalf("FullOrder = %v, want rep's order [lb la] with no duplicates", fo)
	}
}

func TestChosenRepPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ChosenRep of empty gotstate did not panic")
		}
	}()
	GotState{}.ChosenRep()
}

func TestMaxNextConfirmDefaultsToOne(t *testing.T) {
	if got := (GotState{}).MaxNextConfirm(); got != 1 {
		t.Errorf("MaxNextConfirm(empty) = %d, want 1", got)
	}
}

// TestFullOrderProperties: for random gotstates, fullorder (a) starts with
// shortorder, (b) contains every label of knowncontent exactly once, and
// (c) lists the remainder in ascending label order.
func TestFullOrderProperties(t *testing.T) {
	type rawSummary struct {
		OrdSeqs []uint8
		ConSeqs []uint8
		High    uint8
		Next    uint8
	}
	cfg := &quick.Config{MaxCount: 300}
	f := func(raws [3]rawSummary) bool {
		y := GotState{}
		for i, raw := range raws {
			con := map[types.Label]types.Value{}
			var ord []types.Label
			seen := map[types.Label]bool{}
			for _, s := range raw.OrdSeqs {
				l := lbl(1, int(s%8)+1, types.ProcID(s%3))
				if !seen[l] {
					seen[l] = true
					ord = append(ord, l)
					con[l] = "v"
				}
			}
			for _, s := range raw.ConSeqs {
				l := lbl(1, int(s%8)+1, types.ProcID(s%3))
				con[l] = "v"
			}
			y = y.with(types.ProcID(i), &Summary{
				Con: con, Ord: ord, Next: int(raw.Next), High: types.ViewID{Epoch: int64(raw.High % 4), Proc: 0},
			})
		}
		fo := y.FullOrder()
		short := y.ShortOrder()
		// (a) prefix
		if len(fo) < len(short) {
			return false
		}
		for i := range short {
			if fo[i] != short[i] {
				return false
			}
		}
		// (b) exactly the knowncontent domain, no duplicates
		seen := map[types.Label]bool{}
		for _, l := range fo {
			if seen[l] {
				return false
			}
			seen[l] = true
		}
		kc := refKnownContent(y)
		if len(seen) != len(kc) {
			return false
		}
		for l := range kc {
			if !seen[l] {
				return false
			}
		}
		// (c) tail sorted
		tail := fo[len(short):]
		for i := 1; i < len(tail); i++ {
			if tail[i].Less(tail[i-1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestLabeledValueAndSummaryString(t *testing.T) {
	lv := LabeledValue{L: lbl(1, 1, 0), A: "v"}
	if lv.String() == "" {
		t.Error("empty LabeledValue string")
	}
	x := &Summary{Con: map[types.Label]types.Value{lbl(1, 1, 0): "v"}, Ord: []types.Label{lbl(1, 1, 0)}, Next: 1}
	if x.String() == "" {
		t.Error("empty Summary string")
	}
}

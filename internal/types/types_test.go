package types

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestViewIDOrder(t *testing.T) {
	cases := []struct {
		a, b ViewID
		less bool
	}{
		{Bottom, G0(), true},
		{G0(), Bottom, false},
		{Bottom, Bottom, false},
		{G0(), G0(), false},
		{ViewID{Epoch: 1, Proc: 0}, ViewID{Epoch: 1, Proc: 1}, true},
		{ViewID{Epoch: 1, Proc: 5}, ViewID{Epoch: 2, Proc: 0}, true},
		{ViewID{Epoch: 3, Proc: 1}, ViewID{Epoch: 2, Proc: 9}, false},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.less {
			t.Errorf("%v.Less(%v) = %t, want %t", c.a, c.b, got, c.less)
		}
	}
}

func TestViewIDLessIsStrictTotalOrder(t *testing.T) {
	gen := func(r *rand.Rand) ViewID {
		return ViewID{Epoch: r.Int63n(4), Proc: ProcID(r.Intn(4))}
	}
	t.Logf("seed 1")
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		a, b, c := gen(r), gen(r), gen(r)
		// Trichotomy.
		n := 0
		if a.Less(b) {
			n++
		}
		if b.Less(a) {
			n++
		}
		if a == b {
			n++
		}
		if n != 1 {
			t.Fatalf("trichotomy fails for %v, %v", a, b)
		}
		// Transitivity.
		if a.Less(b) && b.Less(c) && !a.Less(c) {
			t.Fatalf("transitivity fails for %v < %v < %v", a, b, c)
		}
		// Cmp consistency.
		switch a.Cmp(b) {
		case -1:
			if !a.Less(b) {
				t.Fatalf("Cmp=-1 but !Less: %v %v", a, b)
			}
		case 0:
			if a != b {
				t.Fatalf("Cmp=0 but unequal: %v %v", a, b)
			}
		case 1:
			if !b.Less(a) {
				t.Fatalf("Cmp=1 but !greater: %v %v", a, b)
			}
		}
		if a.LessEq(b) != (a.Less(b) || a == b) {
			t.Fatalf("LessEq inconsistent for %v %v", a, b)
		}
	}
}

func TestViewIDBottomAndString(t *testing.T) {
	if !Bottom.IsBottom() || G0().IsBottom() {
		t.Fatal("IsBottom misclassifies")
	}
	if Bottom.String() != "⊥" {
		t.Errorf("Bottom.String() = %q", Bottom.String())
	}
	if got := (ViewID{Epoch: 2, Proc: 3}).String(); got != "g2.3" {
		t.Errorf("String() = %q, want g2.3", got)
	}
}

func TestNewProcSetSortsAndDedups(t *testing.T) {
	s := NewProcSet(3, 1, 3, 2, 1)
	want := []ProcID{1, 2, 3}
	if !reflect.DeepEqual(s.Members(), want) {
		t.Fatalf("Members() = %v, want %v", s.Members(), want)
	}
	if s.Size() != 3 {
		t.Errorf("Size() = %d", s.Size())
	}
}

func TestProcSetOperations(t *testing.T) {
	a := NewProcSet(1, 2, 3)
	b := NewProcSet(3, 4)
	empty := NewProcSet()

	if !a.Contains(2) || a.Contains(4) {
		t.Error("Contains wrong")
	}
	if !a.Intersects(b) || a.Intersects(NewProcSet(9)) {
		t.Error("Intersects wrong")
	}
	if got := a.Union(b); !got.Equal(NewProcSet(1, 2, 3, 4)) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Intersect(b); !got.Equal(NewProcSet(3)) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Without(2); !got.Equal(NewProcSet(1, 3)) {
		t.Errorf("Without = %v", got)
	}
	if !empty.SubsetOf(a) || !a.SubsetOf(a) || a.SubsetOf(b) {
		t.Error("SubsetOf wrong")
	}
	if !empty.IsEmpty() || a.IsEmpty() {
		t.Error("IsEmpty wrong")
	}
	if a.Min() != 1 {
		t.Errorf("Min = %v", a.Min())
	}
	if a.String() != "{p1,p2,p3}" {
		t.Errorf("String = %q", a.String())
	}
	if a.Key() != a.String() {
		t.Error("Key != String")
	}
}

func TestProcSetMinPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Min of empty set did not panic")
		}
	}()
	NewProcSet().Min()
}

func TestRangeProcSet(t *testing.T) {
	s := RangeProcSet(4)
	if !s.Equal(NewProcSet(0, 1, 2, 3)) {
		t.Fatalf("RangeProcSet(4) = %v", s)
	}
	if !RangeProcSet(0).IsEmpty() {
		t.Error("RangeProcSet(0) not empty")
	}
}

func TestProcSetQuickProperties(t *testing.T) {
	t.Logf("seed 7")
	cfg := &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(7))}
	mk := func(raw []uint8) ProcSet {
		ids := make([]ProcID, len(raw))
		for i, v := range raw {
			ids[i] = ProcID(v % 16)
		}
		return NewProcSet(ids...)
	}
	// Union is commutative and contains both operands.
	err := quick.Check(func(xs, ys []uint8) bool {
		a, b := mk(xs), mk(ys)
		u := a.Union(b)
		return u.Equal(b.Union(a)) && a.SubsetOf(u) && b.SubsetOf(u)
	}, cfg)
	if err != nil {
		t.Error(err)
	}
	// Intersect is a subset of both; Intersects agrees with non-emptiness.
	err = quick.Check(func(xs, ys []uint8) bool {
		a, b := mk(xs), mk(ys)
		i := a.Intersect(b)
		return i.SubsetOf(a) && i.SubsetOf(b) && (a.Intersects(b) == !i.IsEmpty())
	}, cfg)
	if err != nil {
		t.Error(err)
	}
	// Members are strictly sorted (and hence unique).
	err = quick.Check(func(xs []uint8) bool {
		m := mk(xs).Members()
		return sort.SliceIsSorted(m, func(i, j int) bool { return m[i] < m[j] }) &&
			func() bool {
				for i := 1; i < len(m); i++ {
					if m[i] == m[i-1] {
						return false
					}
				}
				return true
			}()
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestLabelOrder(t *testing.T) {
	g1 := ViewID{Epoch: 1, Proc: 0}
	g2 := ViewID{Epoch: 2, Proc: 0}
	cases := []struct {
		a, b Label
		less bool
	}{
		{Label{g1, 1, 0}, Label{g2, 1, 0}, true},
		{Label{g1, 1, 0}, Label{g1, 2, 0}, true},
		{Label{g1, 1, 0}, Label{g1, 1, 1}, true},
		{Label{g2, 1, 0}, Label{g1, 9, 9}, false},
		{Label{g1, 1, 1}, Label{g1, 1, 1}, false},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.less {
			t.Errorf("%v.Less(%v) = %t, want %t", c.a, c.b, got, c.less)
		}
		want := 0
		switch {
		case c.a.Less(c.b):
			want = -1
		case c.b.Less(c.a):
			want = 1
		}
		if got := c.a.Compare(c.b); got != want {
			t.Errorf("%v.Compare(%v) = %d, want %d", c.a, c.b, got, want)
		}
	}
}

func TestSortLabels(t *testing.T) {
	g1 := ViewID{Epoch: 1}
	g2 := ViewID{Epoch: 2}
	ls := []Label{{g2, 1, 0}, {g1, 2, 1}, {g1, 2, 0}, {g1, 1, 3}}
	SortLabels(ls)
	for i := 1; i < len(ls); i++ {
		if ls[i].Less(ls[i-1]) {
			t.Fatalf("not sorted at %d: %v", i, ls)
		}
	}
}

func TestMajorities(t *testing.T) {
	m := Majorities{Universe: RangeProcSet(5)}
	cases := []struct {
		set  ProcSet
		want bool
	}{
		{NewProcSet(0, 1, 2), true},
		{NewProcSet(0, 1), false},
		{NewProcSet(0, 1, 2, 3, 4), true},
		{NewProcSet(), false},
		// Members outside the universe don't count.
		{NewProcSet(7, 8, 9), false},
		{NewProcSet(0, 1, 7, 8, 9), false},
	}
	for _, c := range cases {
		if got := m.IsQuorumContained(c.set); got != c.want {
			t.Errorf("IsQuorumContained(%v) = %t, want %t", c.set, got, c.want)
		}
	}
}

func TestExplicitQuorums(t *testing.T) {
	q, err := NewExplicitQuorums(NewProcSet(0, 1), NewProcSet(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !q.IsQuorumContained(NewProcSet(0, 1, 5)) {
		t.Error("superset of a quorum not recognized")
	}
	if q.IsQuorumContained(NewProcSet(0, 2)) {
		t.Error("non-quorum accepted")
	}
	if _, err := NewExplicitQuorums(NewProcSet(0), NewProcSet(1)); err == nil {
		t.Error("disjoint quorums accepted")
	}
}

func TestInitialView(t *testing.T) {
	v := InitialView(NewProcSet(0, 1))
	if v.ID != G0() || !v.Set.Equal(NewProcSet(0, 1)) {
		t.Fatalf("InitialView = %v", v)
	}
}

// TestMajorityQuorumsPairwiseIntersect is the property the VStoTO
// algorithm's primary-view reasoning rests on: any two majorities of the
// same universe share a member.
func TestMajorityQuorumsPairwiseIntersect(t *testing.T) {
	universe := RangeProcSet(7)
	m := Majorities{Universe: universe}
	members := universe.Members()
	// Enumerate all subsets of a 7-element universe.
	for a := 0; a < 1<<7; a++ {
		setA := subsetOf(members, a)
		if !m.IsQuorumContained(setA) {
			continue
		}
		for b := 0; b < 1<<7; b++ {
			setB := subsetOf(members, b)
			if !m.IsQuorumContained(setB) {
				continue
			}
			if !setA.Intersects(setB) {
				t.Fatalf("majorities %v and %v do not intersect", setA, setB)
			}
		}
	}
}

func subsetOf(members []ProcID, mask int) ProcSet {
	var ids []ProcID
	for i, p := range members {
		if mask&(1<<i) != 0 {
			ids = append(ids, p)
		}
	}
	return NewProcSet(ids...)
}

// TestMajoritiesMatchesIntersection: the merge-walk count agrees with
// |s ∩ P| > |P|/2 for every subset s of a ground set wider than a universe
// with gaps.
func TestMajoritiesMatchesIntersection(t *testing.T) {
	universe := NewProcSet(1, 3, 4, 6, 8)
	m := Majorities{Universe: universe}
	ground := RangeProcSet(10).Members()
	for bits := 0; bits < 1<<len(ground); bits++ {
		s := subsetOf(ground, bits)
		want := 2*s.Intersect(universe).Size() > universe.Size()
		if got := m.IsQuorumContained(s); got != want {
			t.Fatalf("IsQuorumContained(%v) = %t, want %t", s, got, want)
		}
	}
}

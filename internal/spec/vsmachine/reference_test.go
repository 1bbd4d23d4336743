package vsmachine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/ioa"
	"repro/internal/types"
)

// refMachine is Figure 6 kept in maps keyed as the figure indexes its
// variables: the reference the slice-based Machine is checked against.
type refMachine struct {
	procs         types.ProcSet
	weak          bool
	created       map[types.ViewID]types.View
	currentViewID map[types.ProcID]types.ViewID
	queue         map[types.ViewID][]Entry
	pending       map[pg][]Msg
	next          map[pg]int
	nextSafe      map[pg]int
	// GapMachine's state (its next index is next).
	contiguous    map[pg]int
	skippedSender map[pg]map[types.ProcID]bool
}

func newRef(procs, p0 types.ProcSet, weak bool) *refMachine {
	r := &refMachine{procs: procs, weak: weak,
		created: map[types.ViewID]types.View{}, currentViewID: map[types.ProcID]types.ViewID{},
		queue: map[types.ViewID][]Entry{}, pending: map[pg][]Msg{}, next: map[pg]int{}, nextSafe: map[pg]int{},
		contiguous: map[pg]int{}, skippedSender: map[pg]map[types.ProcID]bool{}}
	v0 := types.InitialView(p0)
	r.created[v0.ID] = v0
	for _, p := range procs.Members() {
		r.currentViewID[p] = types.Bottom
		if p0.Contains(p) {
			r.currentViewID[p] = v0.ID
		}
	}
	return r
}

// idx reads an index map with Figure 6's default of 1.
func idx(m map[pg]int, p types.ProcID, g types.ViewID) int {
	if n, ok := m[pg{p, g}]; ok {
		return n
	}
	return 1
}

// sortedMapKeys returns m's keys in order.
func sortedMapKeys[K comparable, V any](m map[K]V, order func(K, K) int) []K {
	var ks []K
	for k := range m {
		ks = append(ks, k)
	}
	slices.SortFunc(ks, order)
	return ks
}

func (r *refMachine) createviewEnabled(v types.View) bool {
	if v.ID.IsBottom() {
		return false
	}
	if r.weak {
		_, exists := r.created[v.ID]
		return !exists
	}
	for id := range r.created {
		if !id.Less(v.ID) {
			return false
		}
	}
	return true
}

func (r *refMachine) safeEnabled(msg Msg, p, q types.ProcID) bool {
	g := r.currentViewID[q]
	v, ok := r.created[g]
	if g.IsBottom() || !ok {
		return false
	}
	ns, queue := idx(r.nextSafe, q, g), r.queue[g]
	if ns > len(queue) || queue[ns-1].M != msg || queue[ns-1].P != p {
		return false
	}
	for _, s := range v.Set.Members() {
		if idx(r.next, s, g) <= ns {
			return false
		}
	}
	return true
}

func (r *refMachine) enabled(proposals []types.View) []ioa.Action {
	var buf []ioa.Action
	for _, v := range proposals {
		if r.createviewEnabled(v) {
			buf = append(buf, Createview{V: v})
		}
	}
	for _, id := range sortedMapKeys(r.created, types.ViewID.Cmp) {
		v := r.created[id]
		for _, p := range v.Set.Members() {
			if cur := r.currentViewID[p]; cur.IsBottom() || cur.Less(v.ID) {
				buf = append(buf, Newview{V: v, P: p})
			}
		}
	}
	for _, k := range sortedMapKeys(r.pending, cmpPG) {
		if pend := r.pending[k]; len(pend) > 0 {
			buf = append(buf, VSOrder{M: pend[0], P: k.P, G: k.G})
		}
	}
	for _, q := range r.procs.Members() {
		g := r.currentViewID[q]
		if g.IsBottom() {
			continue
		}
		queue := r.queue[g]
		if n := idx(r.next, q, g); n <= len(queue) {
			buf = append(buf, Gprcv{M: queue[n-1].M, P: queue[n-1].P, Q: q})
		}
		if ns := idx(r.nextSafe, q, g); ns <= len(queue) && r.safeEnabled(queue[ns-1].M, queue[ns-1].P, q) {
			buf = append(buf, Safe{M: queue[ns-1].M, P: queue[ns-1].P, Q: q})
		}
	}
	return buf
}

// apply performs act, which the reference enabled (or which is a gpsnd).
func (r *refMachine) apply(act ioa.Action) {
	switch t := act.(type) {
	case Createview:
		r.created[t.V.ID] = t.V
	case Newview:
		r.currentViewID[t.P] = t.V.ID
	case Gpsnd:
		if g := r.currentViewID[t.P]; !g.IsBottom() {
			r.pending[pg{t.P, g}] = append(r.pending[pg{t.P, g}], t.M)
		}
	case VSOrder:
		k := pg{t.P, t.G}
		r.pending[k] = r.pending[k][1:]
		r.queue[t.G] = append(r.queue[t.G], Entry{M: t.M, P: t.P})
	case Gprcv:
		g := r.currentViewID[t.Q]
		r.next[pg{t.Q, g}] = idx(r.next, t.Q, g) + 1
	case Safe:
		g := r.currentViewID[t.Q]
		r.nextSafe[pg{t.Q, g}] = idx(r.nextSafe, t.Q, g) + 1
	default:
		panic(fmt.Sprintf("reference: unexpected %v", act))
	}
}

func (r *refMachine) fingerprint() []byte {
	var buf []byte
	created := sortedMapKeys(r.created, types.ViewID.Cmp)
	buf = binary.AppendUvarint(buf, uint64(len(created)))
	for _, id := range created {
		buf = r.created[id].AppendFingerprint(buf)
	}
	for _, p := range r.procs.Members() {
		buf = r.currentViewID[p].AppendFingerprint(buf)
	}
	queues := sortedMapKeys(r.queue, types.ViewID.Cmp)
	buf = binary.AppendUvarint(buf, uint64(len(queues)))
	for _, g := range queues {
		buf = g.AppendFingerprint(buf)
		buf = binary.AppendUvarint(buf, uint64(len(r.queue[g])))
		for _, e := range r.queue[g] {
			buf = appendMsgFingerprint(buf, e.M)
			buf = binary.AppendVarint(buf, int64(e.P))
		}
	}
	var nonEmpty []pg
	for _, k := range sortedMapKeys(r.pending, cmpPG) {
		if len(r.pending[k]) > 0 {
			nonEmpty = append(nonEmpty, k)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(nonEmpty)))
	for _, k := range nonEmpty {
		buf = binary.AppendVarint(buf, int64(k.P))
		buf = k.G.AppendFingerprint(buf)
		buf = binary.AppendUvarint(buf, uint64(len(r.pending[k])))
		for _, msg := range r.pending[k] {
			buf = appendMsgFingerprint(buf, msg)
		}
	}
	for _, m := range []map[pg]int{r.next, r.nextSafe} {
		var ks []pg
		for _, k := range sortedMapKeys(m, cmpPG) {
			if m[k] != 1 {
				ks = append(ks, k)
			}
		}
		buf = binary.AppendUvarint(buf, uint64(len(ks)))
		for _, k := range ks {
			buf = binary.AppendVarint(buf, int64(k.P))
			buf = k.G.AppendFingerprint(buf)
			buf = binary.AppendVarint(buf, int64(m[k]))
		}
	}
	return buf
}

// checkInvariants is Lemma 4.1 over the maps (parts 1 and 7 included).
func (r *refMachine) checkInvariants() error {
	for _, p := range r.procs.Members() {
		cur := r.currentViewID[p]
		if cur.IsBottom() {
			continue
		}
		v, ok := r.created[cur]
		if !ok {
			return fmt.Errorf("lemma 4.1(2): current-viewid[%v]=%v not created", p, cur)
		}
		if !v.Set.Contains(p) {
			return fmt.Errorf("lemma 4.1(3): %v not a member of its current view %v", p, v)
		}
	}
	for k, pend := range r.pending {
		if len(pend) == 0 {
			continue
		}
		cur := r.currentViewID[k.P]
		if _, ok := r.created[k.G]; !ok {
			return fmt.Errorf("lemma 4.1(4): pending[%v,%v] nonempty but %v not created", k.P, k.G, k.G)
		}
		if cur.IsBottom() {
			return fmt.Errorf("lemma 4.1(5): pending[%v,%v] nonempty but current-viewid[%v]=⊥", k.P, k.G, k.P)
		}
		if cur.Less(k.G) {
			return fmt.Errorf("lemma 4.1(6): pending[%v,%v] nonempty but %v > current-viewid[%v]=%v", k.P, k.G, k.G, k.P, cur)
		}
	}
	for g, queue := range r.queue {
		if _, ok := r.created[g]; !ok && len(queue) > 0 {
			return fmt.Errorf("lemma 4.1(7): queue[%v] nonempty but %v not created", g, g)
		}
		for _, e := range queue {
			cur := r.currentViewID[e.P]
			if cur.IsBottom() {
				return fmt.Errorf("lemma 4.1(8): ⟨%v,%v⟩ in queue[%v] but current-viewid[%v]=⊥", e.M, e.P, g, e.P)
			}
			if cur.Less(g) {
				return fmt.Errorf("lemma 4.1(9): ⟨%v,%v⟩ in queue[%v] but %v > current-viewid[%v]=%v", e.M, e.P, g, g, e.P, cur)
			}
		}
	}
	for k, n := range r.next {
		if n > len(r.queue[k.G])+1 {
			return fmt.Errorf("lemma 4.1(10): next[%v,%v]=%d > len(queue[%v])+1=%d", k.P, k.G, n, k.G, len(r.queue[k.G])+1)
		}
		if v, ok := r.created[k.G]; ok && n != 1 && !v.Set.Contains(k.P) {
			return fmt.Errorf("lemma 4.1(13): next[%v,%v]=%d but %v ∉ %v", k.P, k.G, n, k.P, v.Set)
		}
	}
	for k, ns := range r.nextSafe {
		if ns > len(r.queue[k.G])+1 {
			return fmt.Errorf("lemma 4.1(11): next-safe[%v,%v]=%d > len(queue[%v])+1=%d", k.P, k.G, ns, k.G, len(r.queue[k.G])+1)
		}
		if ns > idx(r.next, k.P, k.G) {
			return fmt.Errorf("lemma 4.1(12): next-safe[%v,%v]=%d > next=%d", k.P, k.G, ns, idx(r.next, k.P, k.G))
		}
		if v, ok := r.created[k.G]; ok && ns != 1 && !v.Set.Contains(k.P) {
			return fmt.Errorf("lemma 4.1(14): next-safe[%v,%v]=%d but %v ∉ %v", k.P, k.G, ns, k.P, v.Set)
		}
	}
	return nil
}

// gprcvAtEnabled and applyGprcvAt are GapMachine's delivery over the maps.
func (r *refMachine) gprcvAtEnabled(q types.ProcID, k int, perSender bool) bool {
	g := r.currentViewID[q]
	queue := r.queue[g]
	if g.IsBottom() || k < idx(r.next, q, g) || k > len(queue) {
		return false
	}
	if perSender {
		sender := queue[k-1].P
		if r.skippedSender[pg{q, g}][sender] {
			return false
		}
		for j := idx(r.next, q, g); j < k; j++ {
			if queue[j-1].P == sender {
				return false
			}
		}
	}
	return true
}

func (r *refMachine) applyGprcvAt(q types.ProcID, k int) {
	g := r.currentViewID[q]
	key, wasNext := pg{q, g}, idx(r.next, q, g)
	for j := wasNext; j < k; j++ {
		if r.skippedSender[key] == nil {
			r.skippedSender[key] = map[types.ProcID]bool{}
		}
		r.skippedSender[key][r.queue[g][j-1].P] = true
	}
	r.next[key] = k + 1
	if k == wasNext && r.contiguous[key] == wasNext-1 {
		r.contiguous[key] = k
	}
}

func (r *refMachine) safeAtEnabled(q types.ProcID, k int) bool {
	g := r.currentViewID[q]
	v, ok := r.created[g]
	if g.IsBottom() || !ok || k != idx(r.nextSafe, q, g) || k > len(r.queue[g]) {
		return false
	}
	for _, s := range v.Set.Members() {
		if r.contiguous[pg{s, g}] < k {
			return false
		}
	}
	return true
}

// TestMachineMatchesMapReference drives the slice-based Machine and the
// map-based reference through the same seeded random executions — the
// strong machine, the weak machine with out-of-order view creation, and
// GapMachine with skipping deliveries — and requires, after every step,
// the same enabled actions in the same order, the same fingerprint bytes,
// the same Lemma 4.1 verdict, and the same next, next-safe and pending
// at every (processor, view) pair. Each run ends with corruptions that
// Lemma 4.1 must name identically in both.
func TestMachineMatchesMapReference(t *testing.T) {
	for _, kind := range []string{"strong", "weak", "gap", "gap per-sender"} {
		for seed := int64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", kind, seed), func(t *testing.T) {
				checkAgainstReference(t, kind, seed)
			})
		}
	}
}

func checkAgainstReference(t *testing.T, kind string, seed int64) {
	const n, steps = 3, 600
	procs, p0 := types.RangeProcSet(n), types.NewProcSet(0, 1)
	rng := rand.New(rand.NewSource(seed))
	ref := newRef(procs, p0, kind == "weak")
	auto := &Auto{M: New(procs, p0)}
	var gap *GapMachine
	switch kind {
	case "weak":
		auto.M = NewWeak(procs, p0)
	case "gap", "gap per-sender":
		gap = NewGap(procs, p0)
		gap.PerSenderGapFree = kind == "gap per-sender"
		auto.M = gap.Machine
	}
	propose := RandomViewProposer(auto, rng, 0.1)
	if kind == "weak" { // identifiers in a band, many below the maximum
		propose = func() []types.View {
			if rng.Float64() >= 0.1 {
				return nil
			}
			members := []types.ProcID{types.ProcID(rng.Intn(n))}
			for _, p := range procs.Members() {
				if rng.Intn(2) == 0 {
					members = append(members, p)
				}
			}
			return []types.View{{ID: types.ViewID{Epoch: 2 + rng.Int63n(12), Proc: members[0]}, Set: types.NewProcSet(members...)}}
		}
	}
	msgs := 0
	for step := 0; step < steps; step++ {
		compareWithReference(t, step, auto.M, ref)
		if gap != nil && rng.Intn(3) == 0 { // a skipping delivery or a prefix safe
			q := types.ProcID(rng.Intn(n))
			g := auto.M.CurrentViewID[q]
			k := 1 + rng.Intn(len(auto.M.Queue(g))+1)
			if got, want := gap.GprcvAtEnabled(q, k), ref.gprcvAtEnabled(q, k, gap.PerSenderGapFree); got != want {
				t.Fatalf("step %d: GprcvAtEnabled(%v, %d) = %t, reference %t", step, q, k, got, want)
			}
			if gap.GprcvAtEnabled(q, k) {
				if _, err := gap.ApplyGprcvAt(q, k); err != nil {
					t.Fatal(err)
				}
				ref.applyGprcvAt(q, k)
			}
			ns := auto.M.NextSafe(q, g)
			if got, want := gap.SafeAtEnabled(q, ns), ref.safeAtEnabled(q, ns); got != want {
				t.Fatalf("step %d: SafeAtEnabled(%v, %d) = %t, reference %t", step, q, ns, got, want)
			}
			if gap.SafeAtEnabled(q, ns) {
				if _, err := gap.ApplySafeAt(q, ns); err != nil {
					t.Fatal(err)
				}
				ref.nextSafe[pg{q, g}] = ns + 1
			}
			continue
		}
		if rng.Intn(4) == 0 {
			msgs++
			act := Gpsnd{M: msgs, P: types.ProcID(rng.Intn(n))}
			auto.Input(act)
			ref.apply(act)
			continue
		}
		proposals := propose()
		auto.Proposer = func() []types.View { return proposals }
		acts, want := auto.Enabled(nil), ref.enabled(proposals)
		if len(acts) != len(want) {
			t.Fatalf("step %d: Enabled = %v, reference %v", step, acts, want)
		}
		for i := range acts {
			if !reflect.DeepEqual(acts[i], want[i]) {
				t.Fatalf("step %d: Enabled[%d] = %v, reference %v", step, i, acts[i], want[i])
			}
		}
		if len(acts) == 0 {
			continue
		}
		act := acts[rng.Intn(len(acts))]
		if gap != nil {
			if _, ok := act.(Gprcv); ok {
				continue // GapMachine delivers through ApplyGprcvAt
			}
		}
		auto.Perform(act)
		ref.apply(act)
	}
	compareWithReference(t, steps, auto.M, ref)
	if gap == nil && len(auto.M.Created) < 3 {
		t.Errorf("only %d views created; the run did not exercise view change", len(auto.M.Created))
	}

	// Corruptions Lemma 4.1 names the same way in both.
	last := auto.M.Created[len(auto.M.Created)-1]
	q := last.Set.Members()[0]
	c := auto.M.CloneFor(nil)
	c.slotFor(q, last.ID).next = int32(len(last.Queue) + 1)
	ref.next[pg{q, last.ID}] = len(last.Queue) + 2
	compareWithReference(t, steps+1, c, ref)
	c.CurrentViewID[q] = types.ViewID{Epoch: 99, Proc: q}
	ref.currentViewID[q] = types.ViewID{Epoch: 99, Proc: q}
	compareWithReference(t, steps+2, c, ref)
}

// compareWithReference fails unless m and ref hold the same state.
func compareWithReference(t *testing.T, step int, m *Machine, ref *refMachine) {
	t.Helper()
	if got, want := m.AppendFingerprint(nil), ref.fingerprint(); !bytes.Equal(got, want) {
		t.Fatalf("step %d: fingerprint %x, reference %x", step, got, want)
	}
	got, want := m.CheckInvariants(), ref.checkInvariants()
	if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
		t.Fatalf("step %d: Lemma 4.1 verdict %v, reference %v", step, got, want)
	}
	gs := append(m.CreatedViewIDs(), types.ViewID{Epoch: 99})
	if ids := sortedMapKeys(ref.created, types.ViewID.Cmp); !slices.Equal(gs[:len(gs)-1], ids) {
		t.Fatalf("step %d: created %v, reference %v", step, gs[:len(gs)-1], ids)
	}
	for _, p := range m.Procs().Members() {
		for _, g := range gs {
			if got, want := m.Next(p, g), idx(ref.next, p, g); got != want {
				t.Fatalf("step %d: next[%v,%v] = %d, reference %d", step, p, g, got, want)
			}
			if got, want := m.NextSafe(p, g), idx(ref.nextSafe, p, g); got != want {
				t.Fatalf("step %d: next-safe[%v,%v] = %d, reference %d", step, p, g, got, want)
			}
			if got, want := m.Pending(p, g), ref.pending[pg{p, g}]; !slices.Equal(got, want) {
				t.Fatalf("step %d: pending[%v,%v] = %v, reference %v", step, p, g, got, want)
			}
		}
	}
}

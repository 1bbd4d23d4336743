package vstoto

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/types"
)

// labelModel is the reference for Proc's label state: content and
// safe-labels as the maps Figure 9 describes, updated by each input and
// action exactly as Figure 10 says.
type labelModel struct {
	content map[types.Label]types.Value
	safe    map[types.Label]bool
}

func newLabelModel() *labelModel {
	return &labelModel{content: map[types.Label]types.Value{}, safe: map[types.Label]bool{}}
}

// extras returns content's labels that order does not hold, in label order.
func (m *labelModel) extras(order []types.Label) []types.Label {
	var out []types.Label
	for l := range m.content {
		if !slices.Contains(order, l) {
			out = append(out, l)
		}
	}
	slices.SortFunc(out, types.Label.Compare)
	return out
}

// fingerprint is the processor encoding as it was built from the maps.
func (m *labelModel) fingerprint(p *Proc) []byte {
	var buf []byte
	buf = binary.AppendVarint(buf, int64(p.id))
	buf = p.Current.AppendFingerprint(buf)
	buf = binary.AppendVarint(buf, int64(p.NextSeqno))
	buf = binary.AppendVarint(buf, int64(p.Status))
	buf = binary.AppendVarint(buf, int64(p.NextConfirm))
	buf = binary.AppendVarint(buf, int64(p.NextReport))
	buf = p.HighPrimary.AppendFingerprint(buf)
	for _, ls := range [][]types.Label{p.Buffer, p.Order} {
		buf = binary.AppendUvarint(buf, uint64(len(ls)))
		for _, l := range ls {
			buf = l.AppendFingerprint(buf)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(p.Delay)))
	for _, a := range p.Delay {
		buf = types.AppendFingerprintString(buf, string(a))
	}
	labels := sortedKeys(nil, m.content, types.Label.Compare, nil)
	buf = binary.AppendUvarint(buf, uint64(len(labels)))
	for _, l := range labels {
		buf = l.AppendFingerprint(buf)
		buf = types.AppendFingerprintString(buf, string(m.content[l]))
	}
	buf = binary.AppendUvarint(buf, uint64(len(p.GotState)))
	for _, e := range p.GotState {
		buf = binary.AppendVarint(buf, int64(e.Q))
		buf = e.X.AppendFingerprint(buf)
	}
	buf = binary.AppendUvarint(buf, uint64(len(p.SafeExch)))
	for _, q := range p.SafeExch {
		buf = binary.AppendVarint(buf, int64(q))
	}
	sls := sortedKeys(nil, m.safe, types.Label.Compare, nil)
	buf = binary.AppendUvarint(buf, uint64(len(sls)))
	for _, l := range sls {
		buf = l.AppendFingerprint(buf)
	}
	return buf
}

// compare reports the first query on which p and the model disagree.
func (m *labelModel) compare(p *Proc, probes []types.Label) error {
	if p.ContentLen() != len(m.content) {
		return fmt.Errorf("ContentLen %d, model %d", p.ContentLen(), len(m.content))
	}
	if n := p.safeLen(); n != len(m.safe) {
		return fmt.Errorf("safe size %d, model %d", n, len(m.safe))
	}
	for _, l := range probes {
		a, ok := p.ValueOf(l)
		if b, okm := m.content[l]; a != b || ok != okm {
			return fmt.Errorf("ValueOf(%v) = %q %t, model %q %t", l, a, ok, b, okm)
		}
		if p.Safe(l) != m.safe[l] {
			return fmt.Errorf("Safe(%v) = %t, model %t", l, p.Safe(l), m.safe[l])
		}
	}
	var ranged []types.Label
	p.RangeContent(func(l types.Label, a types.Value) bool {
		if m.content[l] != a {
			err := fmt.Errorf("RangeContent gives %v ↦ %q, model %q", l, a, m.content[l])
			panic(err)
		}
		ranged = append(ranged, l)
		return true
	})
	if want := sortedKeys(nil, m.content, types.Label.Compare, nil); !slices.Equal(ranged, want) {
		return fmt.Errorf("RangeContent order %v, model %v", ranged, want)
	}
	if got, want := p.AppendExtras(nil, p.Order), m.extras(p.Order); !slices.Equal(got, want) {
		return fmt.Errorf("AppendExtras %v, model %v", got, want)
	}
	if got, want := p.AppendFingerprint(nil), m.fingerprint(p); !bytes.Equal(got, want) {
		return fmt.Errorf("AppendFingerprint differs from the map encoding")
	}
	return nil
}

// labelDriver feeds one processor the inputs VS and a client could give
// it, in random order but within VS's guarantees: per-sender FIFO values
// and safe indications in the current view, a sender's summary before its
// values, safe for a summary only once it was delivered, and summaries
// whose content is a prefix of each (view, origin) run.
type labelDriver struct {
	rng   *rand.Rand
	qs    types.QuorumSystem
	p     *Proc
	m     *labelModel
	epoch int64
	truth map[types.Label]types.Value // every label ever assigned
	runs  map[[2]int64]int            // (epoch, origin) → labels assigned
	got   map[types.ProcID]int        // values delivered from each origin in this view
	own   *Summary                    // p's summary, once sent
	bcast int
	tag   string // marks the values this driver invents
}

func (d *labelDriver) assign(origin types.ProcID, a types.Value) types.Label {
	k := [2]int64{d.epoch, int64(origin)}
	d.runs[k]++
	l := types.Label{ID: types.ViewID{Epoch: d.epoch, Proc: 0}, Seqno: d.runs[k], Origin: origin}
	d.truth[l] = a
	return l
}

// prefixCon returns a content relation holding a random prefix of every
// run of earlier views.
func (d *labelDriver) prefixCon() map[types.Label]types.Value {
	con := map[types.Label]types.Value{}
	for k, n := range d.runs {
		if k[0] == d.epoch {
			continue
		}
		for s := 1; s <= d.rng.Intn(n+1); s++ {
			l := types.Label{ID: types.ViewID{Epoch: k[0]}, Seqno: s, Origin: types.ProcID(k[1])}
			con[l] = d.truth[l]
		}
	}
	return con
}

func (d *labelDriver) step() string {
	p, m, cur := d.p, d.m, d.p.Current
	members := cur.Set.Members()
	q := types.ProcID(0)
	if len(members) > 0 {
		q = members[d.rng.Intn(len(members))]
	}
	switch d.rng.Intn(12) {
	case 0, 1: // bcast + label
		d.bcast++
		p.Bcast(types.Value(fmt.Sprintf("%sa%d", d.tag, d.bcast)))
		if _, ok := p.LabelEnabled(); !ok {
			return "bcast"
		}
		a := p.Delay[0]
		l := p.Label()
		if want := d.assign(p.id, a); l != want {
			panic(fmt.Sprintf("label %v, driver expected %v", l, want))
		}
		m.content[l] = a
		return "label"
	case 2, 3, 4: // gprcv of q's next value
		if cur.ID.IsBottom() || (cur.ID != types.G0() && p.GotState.Of(q) == nil) {
			return "skip"
		}
		l := types.Label{ID: cur.ID, Seqno: d.got[q] + 1, Origin: q}
		a, ok := d.truth[l]
		if q == p.id && !ok {
			return "skip"
		}
		if !ok {
			a = types.Value(fmt.Sprintf("%sv%v", d.tag, l))
			d.assign(q, a)
		}
		d.got[q]++
		p.GprcvValue(LabeledValue{L: l, A: a})
		m.content[l] = a
		return "gprcv value"
	case 5, 6: // safe of q's next delivered value
		n := 0
		for l := range m.safe {
			if l.ID == cur.ID && l.Origin == q {
				n = max(n, l.Seqno)
			}
		}
		if cur.ID.IsBottom() || n >= d.got[q] {
			return "skip"
		}
		l := types.Label{ID: cur.ID, Seqno: n + 1, Origin: q}
		p.SafeValue(LabeledValue{L: l, A: d.truth[l]})
		if p.Primary() {
			m.safe[l] = true
		}
		return "safe value"
	case 7, 8: // summary traffic
		switch {
		case p.GpsndSummaryEnabled():
			d.own = p.GpsndSummary()
			return "gpsnd summary"
		case p.Status == StatusNormal || p.GotState.Of(q) != nil || (q == p.id && d.own == nil):
			return "skip"
		}
		x := d.own
		if q != p.id {
			con := d.prefixCon()
			ord := sortedKeys(nil, con, types.Label.Compare, nil)
			x = &Summary{Con: con, Ord: ord[:d.rng.Intn(len(ord)+1)], Next: 1, High: types.G0()}
		}
		p.GprcvSummary(q, x)
		for l, a := range x.Con {
			m.content[l] = a
		}
		return "gprcv summary"
	case 9: // safe of q's summary, once delivered
		if p.GotState.Of(q) == nil || slices.Contains(p.SafeExch, q) {
			return "skip"
		}
		p.SafeSummary(q)
		if p.safeExchComplete() && p.Primary() {
			for _, l := range p.GotState.FullOrder() {
				m.safe[l] = true
			}
		}
		return "safe summary"
	case 10: // newview
		if d.rng.Intn(2) > 0 {
			return "skip"
		}
		d.epoch++
		set := []types.ProcID{p.id}
		for _, r := range []types.ProcID{1, 2} {
			if d.rng.Intn(3) > 0 {
				set = append(set, r)
			}
		}
		p.Newview(types.View{ID: types.ViewID{Epoch: d.epoch}, Set: types.NewProcSet(set...)})
		m.safe = map[types.Label]bool{}
		d.got, d.own = map[types.ProcID]int{}, nil
		return "newview"
	default: // restart: restore content from a replayed log, as the stack does
		if d.rng.Intn(8) > 0 {
			return "skip"
		}
		d.epoch++ // the restarted processor joins only later views
		con := d.prefixCon()
		d.p = NewProc(p.id, d.qs, types.ProcSet{})
		d.p.MergeContent(RunsOf(con))
		d.m = newLabelModel()
		for l, a := range con {
			d.m.content[l] = a
		}
		d.got, d.own = map[types.ProcID]int{}, nil
		return "restore"
	}
}

// fork returns a driver for a clone of d's processor and model, with its
// own copy of what the inputs so far assigned.
func (d *labelDriver) fork(seed int64) *labelDriver {
	out := *d
	out.rng, out.tag = rand.New(rand.NewSource(seed)), d.tag+"f"
	out.p, out.m = d.p.Clone(), newLabelModel()
	maps.Copy(out.m.content, d.m.content)
	maps.Copy(out.m.safe, d.m.safe)
	out.truth, out.runs, out.got = maps.Clone(d.truth), maps.Clone(d.runs), maps.Clone(d.got)
	return &out
}

// run steps d n times, comparing p with the model after every step.
func (d *labelDriver) run(t *testing.T, name string, n int, seen map[string]int) {
	t.Helper()
	for i := 0; i < n; i++ {
		what := d.step()
		seen[what]++
		if err := d.compare(); err != nil {
			t.Fatalf("%s step %d (%s): %v", name, i, what, err)
		}
	}
}

// compare compares p with the model on every label ever assigned and one
// that never was.
func (d *labelDriver) compare() error {
	probes := make([]types.Label, 0, len(d.truth)+1)
	for l := range d.truth {
		probes = append(probes, l)
	}
	probes = append(probes, types.Label{ID: d.p.Current.ID, Seqno: 99, Origin: 1})
	return d.m.compare(d.p, probes)
}

// TestLabelStateMatchesMaps drives Proc and the map model with the same
// random input sequences (out-of-order summary merges and restores
// included) and compares every lookup, every safe query, the label-ordered
// range, the checkpoint's extras and the whole fingerprint after every
// step. Every 50 steps the run forks: a clone and the original each take
// their own next steps, and both must still match their models.
func TestLabelStateMatchesMaps(t *testing.T) {
	procs := types.RangeProcSet(3)
	qs := types.Majorities{Universe: procs}
	seen := map[string]int{}
	exch := 0
	for seed := int64(1); seed <= 30; seed++ {
		d := &labelDriver{rng: rand.New(rand.NewSource(seed)), qs: qs, p: NewProc(0, qs, procs), m: newLabelModel(),
			epoch: 1, truth: map[types.Label]types.Value{}, runs: map[[2]int64]int{}, got: map[types.ProcID]int{}}
		for round := 0; round < 20; round++ {
			name := fmt.Sprintf("seed %d round %d", seed, round)
			f := d.fork(seed*1000 + int64(round))
			d.run(t, name, 50, seen)
			f.run(t, name+" fork", 25, seen)
			if err := d.compare(); err != nil {
				t.Fatalf("%s: the fork's steps changed the original: %v", name, err)
			}
			if d.p.exchSafe {
				exch++
			}
		}
	}
	// Non-vacuity: every kind of input happened, and states with the
	// exchange safe were compared.
	for _, what := range []string{"label", "gprcv value", "safe value", "gpsnd summary", "gprcv summary", "safe summary", "newview", "restore"} {
		if seen[what] == 0 {
			t.Errorf("no %q step in any run", what)
		}
	}
	if exch == 0 {
		t.Error("no round ended with the exchange safe")
	}
	t.Logf("steps: %v; rounds ending with the exchange safe: %d", seen, exch)
}

// sortedKeys appends to ks, sorted by order, the keys of m whose value
// keep admits (every key when keep is nil).
func sortedKeys[K comparable, V any](ks []K, m map[K]V, order func(K, K) int, keep func(V) bool) []K {
	for k, v := range m {
		if keep == nil || keep(v) {
			ks = append(ks, k)
		}
	}
	slices.SortFunc(ks, order)
	return ks
}

// TestLabelRunsHoles binds a run out of order, as a merge from a map
// does, cloning half way: both copies answer every lookup right, and the
// clone never sees the original's later bindings.
func TestLabelRunsHoles(t *testing.T) {
	g := types.G0()
	lab := func(s int) types.Label { return types.Label{ID: g, Seqno: s, Origin: 1} }
	var c labelRuns
	order := []int{70, 3, 1, 140, 2}
	for _, s := range order {
		c.set(lab(s), types.Value(fmt.Sprint(s)))
	}
	snap := c.clone()
	for s := 1; s <= 140; s++ {
		c.set(lab(s), types.Value(fmt.Sprint(s)))
	}
	if c.n != 140 || c.runs[0].holes != 0 || c.runs[0].missing != nil {
		t.Fatalf("filled run: n=%d holes=%d missing=%v", c.n, c.runs[0].holes, c.runs[0].missing)
	}
	if snap.n != len(order) || snap.runs[0].holes != 140-len(order) {
		t.Fatalf("clone: n=%d holes=%d", snap.n, snap.runs[0].holes)
	}
	// A bound label keeps its value.
	c.set(lab(3), "rebound")
	if a, _ := c.get(lab(3)); a != "3" {
		t.Fatalf("a second binding replaced the value: %q", a)
	}
	for s := 1; s <= 141; s++ {
		a, ok := snap.get(lab(s))
		if want := slices.Contains(order, s); ok != want || (ok && a != types.Value(fmt.Sprint(s))) {
			t.Fatalf("clone get(%d) = %q %t", s, a, ok)
		}
	}
	var walked []int
	snap.walk(func(_, j int) bool { walked = append(walked, j+1); return true })
	if want := []int{1, 2, 3, 70, 140}; !slices.Equal(walked, want) {
		t.Fatalf("clone walks %v, want %v", walked, want)
	}
}

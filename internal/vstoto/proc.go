package vstoto

import (
	"fmt"
	"slices"

	"repro/internal/obs"
	"repro/internal/types"
)

// Status is the VStoTO_p processing status of Figure 9. (One byte, so it
// packs with Proc's flags.)
type Status uint8

// The three statuses: normal (anywhere outside the first recovery phase),
// send (a new view was announced; the state-exchange summary is not yet
// sent), collect (waiting for the remaining members' summaries).
const (
	StatusNormal Status = iota
	StatusSend
	StatusCollect
)

// String renders the status.
func (s Status) String() string {
	switch s {
	case StatusNormal:
		return "normal"
	case StatusSend:
		return "send"
	case StatusCollect:
		return "collect"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Proc is the per-processor VStoTO_p automaton: the state of Figure 9 with
// the transitions of Figure 10, exposed as explicit precondition/effect
// method pairs so that both the randomized ioa executor and the timed
// event-driven stack can drive it.
type Proc struct {
	// The identity, quorum system and obs handles are shared by every
	// clone (see procFixed).
	*procFixed

	// Current is the current view (views⊥; ⊥ encoded as ID.IsBottom()).
	Current types.View
	// NextSeqno generates the per-view label sequence numbers, from 1.
	NextSeqno int
	// Buffer holds labels of values labeled but not yet gpsnd'd.
	Buffer []types.Label
	// Order is the tentative total order of labels.
	Order []types.Label
	// NextConfirm is the 1-based index of the next unconfirmed position in
	// Order.
	NextConfirm int
	// NextReport is the 1-based index of the next confirmed position not
	// yet released to the client.
	NextReport int
	// HighPrimary is the highest established-primary view identifier that
	// has affected Order (G⊥).
	HighPrimary types.ViewID
	// Delay buffers client values not yet labeled.
	Delay []types.Value
	// content is the label→value relation (a partial function; Lemma 6.5)
	// as one dense run per (view, origin): read it with ValueOf,
	// RangeContent and ContentLen (labels.go).
	content labelRuns
	// GotState accumulates state-exchange summaries in the current view.
	GotState GotState
	// SafeExch is the set of members whose summaries are known safe, in
	// ascending order.
	SafeExch []types.ProcID
	// safe is the set of labels reported safe in the current view, as
	// per-origin counts plus the exchange's flag exchSafe: read it with
	// Safe.
	safe safeLabels

	// History variables for the Section 6 proof apparatus (maintained when
	// TrackHistory is set; the timed stack leaves it off).
	//
	// Established is the paper's established[p, g] as the ascending list
	// of the g it holds for: read it with IsEstablished.
	Established []types.ViewID
	// BuildOrder is the paper's buildorder[p, g], the last value of Order
	// while p was in view g, as entries in ascending view order: read it
	// with BuildOrderOf.
	BuildOrder []ViewOrder

	// Status is normal/send/collect.
	Status Status
	// exchSafe is safe-labels_p's flag for fullorder(gotstate) (see
	// safeLabels in labels.go), kept beside Status so the flags share a
	// word.
	exchSafe bool

	// LiteralFigure10Label reverts label(a)_p to the paper's literal
	// precondition (no status check). It exists to *study* the resulting
	// defect: with it set, a value labeled during recovery is ordered
	// twice, and both the randomized checker and the bounded exhaustive
	// explorer find the violation (see TestExploreFindsLiteralLabelBug).
	// Never set it in real use.
	LiteralFigure10Label bool

	// TrackHistory maintains Established and BuildOrder.
	TrackHistory bool
}

// procFixed is the part of a processor that no action changes: NewProc
// sets it and SetObs replaces it. Every clone points to the same one, but
// the explorer's copy, which points to a copy with fx set.
type procFixed struct {
	id types.ProcID
	qs types.QuorumSystem
	// fx is where the actions build the arrays they write (see
	// procEffects); nil, the heap, everywhere but on the explorer's copy.
	fx *procEffects

	// Observability handles (SetObs; all nil when disabled).
	mLabels      *obs.Counter
	mConfirms    *obs.Counter
	mSummaries   *obs.Counter
	mEstablished *obs.Counter
	gOrderLen    *obs.Gauge
}

// ViewOrder is one entry of buildorder: Ord is buildorder[p, G].
type ViewOrder struct {
	G   types.ViewID
	Ord []types.Label
}

// NewProc creates VStoTO_p. Processors in p0 start in the initial view
// ⟨g0, P0⟩ with highprimary g0; the rest start with both ⊥.
func NewProc(id types.ProcID, qs types.QuorumSystem, p0 types.ProcSet) *Proc {
	p := &Proc{
		procFixed:   &procFixed{id: id, qs: qs},
		NextSeqno:   1,
		NextConfirm: 1,
		NextReport:  1,
	}
	if p0.Contains(id) {
		p.Current = types.InitialView(p0)
		p.HighPrimary = types.G0()
		p.Established = []types.ViewID{types.G0()}
	}
	return p
}

// ID returns the processor identifier.
func (p *Proc) ID() types.ProcID { return p.id }

// SetObs binds the layer's obs instruments from the registry (nil disables
// at zero cost): vstoto.labels/confirms/summaries/establishments counters
// and the vstoto.order_len high-water gauge. Clones share the handles, so
// SetObs binds them in a copy of procFixed.
func (p *Proc) SetObs(reg *obs.Registry) {
	f := *p.procFixed
	f.mLabels = reg.Counter("vstoto.labels")
	f.mConfirms = reg.Counter("vstoto.confirms")
	f.mSummaries = reg.Counter("vstoto.summaries")
	f.mEstablished = reg.Counter("vstoto.establishments")
	f.gOrderLen = reg.Gauge("vstoto.order_len")
	p.procFixed = &f
}

// Primary is the derived variable of Figure 9: current ≠ ⊥ and current.set
// contains a quorum.
func (p *Proc) Primary() bool {
	return !p.Current.ID.IsBottom() && p.qs.IsQuorumContained(p.Current.Set)
}

// IsEstablished reports established[p, g].
func (p *Proc) IsEstablished(g types.ViewID) bool {
	_, ok := slices.BinarySearchFunc(p.Established, g, types.ViewID.Cmp)
	return ok
}

// BuildOrderOf returns buildorder[p, g] (nil if p recorded none for g).
func (p *Proc) BuildOrderOf(g types.ViewID) []types.Label {
	if i, ok := p.buildOrderAt(g); ok {
		return p.BuildOrder[i].Ord
	}
	return nil
}

// buildOrderAt returns the index of g's buildorder entry, or where it
// would be inserted.
func (p *Proc) buildOrderAt(g types.ViewID) (int, bool) {
	return slices.BinarySearchFunc(p.BuildOrder, g, func(e ViewOrder, g types.ViewID) int { return e.G.Cmp(g) })
}

// establish sets established[p, g].
func (p *Proc) establish(g types.ViewID) {
	if i, ok := slices.BinarySearchFunc(p.Established, g, types.ViewID.Cmp); !ok {
		p.Established = cowSet(p.fx.viewIDs(), p.Established, i, false, g)
	}
}

func (p *Proc) recordOrder() {
	if p.TrackHistory && !p.Current.ID.IsBottom() {
		// Share the order's backing array instead of copying: Order is
		// append-only within a view, and the three-index expression caps the
		// stored slice at its current length, so a later append reallocates
		// rather than writing through the shared prefix. The eager copy made
		// every primary-view gprcv O(|Order|), i.e. O(n²) per view
		// (BenchmarkRecordOrderHistory pins the asymptotic difference,
		// TestBuildOrderImmutable the aliasing safety).
		i, ok := p.buildOrderAt(p.Current.ID)
		p.BuildOrder = cowSet(p.fx.viewOrders(), p.BuildOrder, i, ok, ViewOrder{G: p.Current.ID, Ord: p.Order[:len(p.Order):len(p.Order)]})
	}
}

// --- Input actions -------------------------------------------------------

// Bcast applies the input bcast(a)_p: append a to delay.
func (p *Proc) Bcast(a types.Value) { p.Delay = appendIn(p.fx.values(), p.Delay, a) }

// Newview applies the input newview(v)_p.
func (p *Proc) Newview(v types.View) {
	p.Current = v
	p.NextSeqno = 1
	p.Buffer = nil
	p.GotState, p.SafeExch = nil, nil
	p.safe, p.exchSafe = nil, false
	p.Status = StatusSend
}

// GprcvValue applies the input gprcv(⟨l,a⟩)_{q,p} for an ordinary message.
func (p *Proc) GprcvValue(lv LabeledValue) {
	p.content.setIn(p.fx, lv.L, lv.A)
	if p.Primary() {
		p.Order = appendIn(p.fx.labels(), p.Order, lv.L)
		p.gOrderLen.Max(int64(len(p.Order)))
		p.recordOrder()
	}
}

// GprcvSummary applies the input gprcv(x)_{q,p} for a state-exchange
// summary; it performs view establishment when the last summary arrives.
func (p *Proc) GprcvSummary(q types.ProcID, x *Summary) {
	runs := x.ContentRuns()
	p.MergeContent(runs)
	// gotstate(q) is x with its content read from content_p, which now
	// binds all of it to the same values (Lemma 6.5), and its order read
	// from an equal one p holds already, if any: the node keeps one copy of
	// the content, and of an order its members share, not one per member.
	y := p.fx.summary()
	*y = Summary{Runs: p.content.views(p.fx, runs), Ord: p.sharedOrder(x.Ord), Next: x.Next, High: x.High}
	p.GotState = p.GotState.withIn(p.fx, q, y)
	if p.GotState.domainEquals(p.Current.Set) && p.Status == StatusCollect {
		p.NextConfirm = p.GotState.MaxNextConfirm()
		if p.Primary() {
			// FullOrder already returns a fresh slice; no defensive copy.
			p.Order = p.GotState.fullOrder(p.fx)
			p.HighPrimary = p.Current.ID
		} else {
			// ShortOrder aliases the chosen representative's summary; cap the
			// slice at its length so appends in a later primary view
			// reallocate instead of mutating the (immutable) summary.
			short := p.GotState.ShortOrder()
			p.Order = short[:len(short):len(short)]
			p.HighPrimary = p.GotState.MaxPrimary()
		}
		p.Status = StatusNormal
		p.mEstablished.Inc()
		p.gOrderLen.Max(int64(len(p.Order)))
		if p.TrackHistory {
			p.establish(p.Current.ID)
		}
		p.recordOrder()
	}
}

// sharedOrder returns ord, or an equal sequence that is a prefix of the
// order or of an order in gotstate, capacity clipped as a summary's is.
func (p *Proc) sharedOrder(ord []types.Label) []types.Label {
	prefixOf := func(held []types.Label) bool {
		return len(ord) > 0 && len(held) >= len(ord) && slices.Equal(held[:len(ord)], ord)
	}
	if prefixOf(p.Order) {
		return p.Order[:len(ord):len(ord)]
	}
	for _, e := range p.GotState {
		if prefixOf(e.X.Ord) {
			return e.X.Ord[:len(ord):len(ord)]
		}
	}
	return ord
}

// SafeValue applies the input safe(⟨l,a⟩)_{q,p}. VS reports safe only for
// messages of the current view, in each sender's order, so l extends its
// origin's safe prefix; anything else panics.
func (p *Proc) SafeValue(lv LabeledValue) {
	if !p.Primary() {
		return
	}
	l := lv.L
	if n, _ := p.safe.count(l.Origin); l.ID != p.Current.ID || l.Seqno > n+1 {
		panic(fmt.Sprintf("vstoto: safe(%v) at %v does not extend %v's safe prefix %d in %v",
			l, p.id, l.Origin, n, p.Current.ID))
	}
	p.safe.raiseIn(p.fx, l.Origin, l.Seqno)
}

// SafeSummary applies the input safe(x)_{q,p} for a state-exchange summary.
func (p *Proc) SafeSummary(q types.ProcID) {
	if i, ok := slices.BinarySearch(p.SafeExch, q); !ok {
		p.SafeExch = cowSet(p.fx.procIDs(), p.SafeExch, i, false, q)
	}
	if p.safeExchComplete() && p.Primary() {
		// Every label of fullorder(gotstate) becomes safe. Its current-view
		// labels are shortorder's and the union's, and raise keeps the
		// maximum, so a run's last seqno stands for all of its labels.
		p.exchSafe = true
		u := p.GotState.union()
		for i := range u.runs {
			if r := &u.runs[i]; r.id == p.Current.ID {
				p.safe.raiseIn(p.fx, r.origin, len(r.vals))
			}
		}
		for _, l := range p.GotState.ShortOrder() {
			if l.ID == p.Current.ID {
				p.safe.raiseIn(p.fx, l.Origin, l.Seqno)
			}
		}
	}
}

// safeExchComplete reports whether every member's summary is known safe.
func (p *Proc) safeExchComplete() bool {
	return !p.Current.ID.IsBottom() && slices.Equal(p.SafeExch, p.Current.Set.Members())
}

// --- Locally controlled actions ------------------------------------------

// LabelEnabled reports whether the internal action label(a)_p is enabled,
// returning the value at the head of delay.
//
// Figure 10 states the precondition as "a is head of delay ∧ current ≠ ⊥";
// we additionally require status = normal. Without it, a value labeled
// between newview and the completion of state exchange enters the sender's
// own summary con, is ordered once at establishment (via fullorder) and
// again when its ordinary message is later delivered — a duplicate that
// breaks Lemma 6.21 and the forward simulation (our randomized checker
// finds this in seconds). The delay queue exists precisely to hold values
// during recovery, so the strengthened precondition matches the paper's
// intent ("normal activity") and restores the proven invariants.
func (p *Proc) LabelEnabled() (types.Value, bool) {
	if len(p.Delay) == 0 || p.Current.ID.IsBottom() {
		return "", false
	}
	if p.Status != StatusNormal && !p.LiteralFigure10Label {
		return "", false
	}
	return p.Delay[0], true
}

// Label performs label(a)_p and returns the label assigned.
func (p *Proc) Label() types.Label {
	a, ok := p.LabelEnabled()
	if !ok {
		panic("vstoto: Label performed while disabled")
	}
	l := types.Label{ID: p.Current.ID, Seqno: p.NextSeqno, Origin: p.id}
	p.mLabels.Inc()
	p.content.setIn(p.fx, l, a)
	p.Buffer = appendIn(p.fx.labels(), p.Buffer, l)
	p.NextSeqno++
	p.Delay = p.Delay[1:]
	return l
}

// GpsndValueEnabled reports whether gpsnd(⟨l,a⟩)_p is enabled, returning
// the pair to send.
func (p *Proc) GpsndValueEnabled() (LabeledValue, bool) {
	if p.Status != StatusNormal || len(p.Buffer) == 0 {
		return LabeledValue{}, false
	}
	l := p.Buffer[0]
	a, ok := p.content.get(l)
	if !ok {
		return LabeledValue{}, false
	}
	return LabeledValue{L: l, A: a}, true
}

// GpsndValue performs gpsnd(⟨l,a⟩)_p, returning the message for the VS
// layer.
func (p *Proc) GpsndValue() LabeledValue {
	lv, ok := p.GpsndValueEnabled()
	if !ok {
		panic("vstoto: GpsndValue performed while disabled")
	}
	p.Buffer = p.Buffer[1:]
	return lv
}

// GpsndSummaryEnabled reports whether the state-exchange gpsnd(x)_p is
// enabled.
func (p *Proc) GpsndSummaryEnabled() bool { return p.Status == StatusSend }

// SummaryMessage builds (without any state change) the summary
// x = ⟨content, order, nextconfirm, highprimary⟩ that the state-exchange
// gpsnd would carry, in O(runs). The summary is an immutable snapshot: Ord
// shares the order's backing array and each content run shares its run's
// values, all with their capacity clipped (the automaton only appends to
// them, so any later growth reallocates away from the shared prefix;
// TestSummaryImmutable pins it).
func (p *Proc) SummaryMessage() *Summary { return p.summaryIn(nil) }

// summaryIn is SummaryMessage with the summary and its runs from fx.
func (p *Proc) summaryIn(fx *procEffects) *Summary {
	x := fx.summary()
	*x = Summary{
		Runs: p.content.segments(fx),
		Ord:  p.Order[:len(p.Order):len(p.Order)],
		Next: p.NextConfirm,
		High: p.HighPrimary,
	}
	return x
}

// CommitSummarySend applies the effect of the state-exchange gpsnd(x)_p:
// status moves from send to collect.
func (p *Proc) CommitSummarySend() {
	if !p.GpsndSummaryEnabled() {
		panic("vstoto: CommitSummarySend while not in send status")
	}
	p.mSummaries.Inc()
	p.Status = StatusCollect
}

// GpsndSummary performs the state-exchange gpsnd(x)_p: it builds the
// summary snapshot and moves to collect.
func (p *Proc) GpsndSummary() *Summary {
	if !p.GpsndSummaryEnabled() {
		panic("vstoto: GpsndSummary performed while disabled")
	}
	x := p.SummaryMessage()
	p.CommitSummarySend()
	return x
}

// ConfirmEnabled reports whether the internal action confirm_p is enabled.
func (p *Proc) ConfirmEnabled() bool {
	if !p.Primary() || p.NextConfirm > len(p.Order) {
		return false
	}
	return p.Safe(p.Order[p.NextConfirm-1])
}

// Confirm performs confirm_p.
func (p *Proc) Confirm() {
	if !p.ConfirmEnabled() {
		panic("vstoto: Confirm performed while disabled")
	}
	p.mConfirms.Inc()
	p.NextConfirm++
}

// BrcvEnabled reports whether the output brcv(a)_{q,p} is enabled,
// returning the origin q and value a.
func (p *Proc) BrcvEnabled() (types.ProcID, types.Value, bool) {
	return p.BrcvEnabledAt(p.NextReport)
}

// BrcvEnabledAt reports whether brcv would be enabled with NextReport at
// pos — the lookahead the pipelined stack uses to write delivery records
// for positions beyond the one currently awaiting its durability callback,
// without committing the automaton state until each release actually
// happens.
func (p *Proc) BrcvEnabledAt(pos int) (types.ProcID, types.Value, bool) {
	if pos >= p.NextConfirm || pos > len(p.Order) {
		return 0, "", false
	}
	l := p.Order[pos-1]
	a, ok := p.content.get(l)
	if !ok {
		return 0, "", false
	}
	return l.Origin, a, true
}

// Brcv performs brcv(a)_{q,p}, returning the origin and value released to
// the client.
func (p *Proc) Brcv() (types.ProcID, types.Value) {
	q, a, ok := p.BrcvEnabled()
	if !ok {
		panic("vstoto: Brcv performed while disabled")
	}
	p.NextReport++
	return q, a
}

// Quiescent reports whether no locally controlled action is enabled: the
// condition under which §7's timed construction lets a good processor's
// time pass.
func (p *Proc) Quiescent() bool {
	if _, ok := p.LabelEnabled(); ok {
		return false
	}
	if _, ok := p.GpsndValueEnabled(); ok {
		return false
	}
	if p.GpsndSummaryEnabled() || p.ConfirmEnabled() {
		return false
	}
	_, _, brcv := p.BrcvEnabled()
	return !brcv
}

// ConfirmedLabels returns the confirmed prefix of Order (the paper's
// order-derived confirm sequence for this processor's own summary).
func (p *Proc) ConfirmedLabels() []types.Label {
	n := p.NextConfirm - 1
	if n > len(p.Order) {
		n = len(p.Order)
	}
	return p.Order[:n]
}

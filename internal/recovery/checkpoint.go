package recovery

import (
	"slices"

	"repro/internal/codec"
	"repro/internal/types"
)

// CheckpointState is the full VStoTO-critical state a checkpoint record
// captures: everything Replay would otherwise fold together from the
// log's history. A valid checkpoint therefore makes every record before
// it redundant, which is what lets compaction discard the prefix — a
// daemon killed hours into a soak replays the last checkpoint plus the
// post-checkpoint suffix instead of the whole history.
//
// The delivered prefix is stored as a count, not a list: delivery i is
// reconstructed from the order — its label is Order[i], its origin the
// label's, its origin sequence number a running per-origin counter, and
// its value Content[Order[i]] — exactly the identities the stack's
// originSeq computes at delivery time.
type CheckpointState struct {
	// HasView and View mirror Snapshot: the last installed view (the
	// membership floor).
	HasView bool
	View    types.View
	// Order, NextConfirm, HighPrimary mirror the VStoTO state.
	Order       []types.Label
	NextConfirm int
	HighPrimary types.ViewID
	// Content is the label→value relation; it must cover every label in
	// Order and may hold extras (labeled values not yet ordered); nil binds
	// nothing. The record is encoded before Checkpoint returns, so the
	// stack passes its live vstoto.Proc.
	Content Content
	// DeliveredCount is the length of the delivered (released) prefix of
	// Order.
	DeliveredCount int
	// Pending are durable submissions never labeled, in submission order.
	Pending []PendingValue
	// BcastSeq is the highest submission sequence number used.
	BcastSeq int
	// Incarnations is the number of durable recovery markers at capture
	// time.
	Incarnations int
}

// Content is the label→value relation a checkpoint captures.
type Content interface {
	// ValueOf returns the value bound to l.
	ValueOf(l types.Label) (types.Value, bool)
	// AppendExtras appends to dst, in label order, every bound label that
	// order does not hold.
	AppendExtras(dst, order []types.Label) []types.Label
}

// ContentMap is a Content held as a map: what Replay reconstructs.
type ContentMap map[types.Label]types.Value

// ValueOf returns the value bound to l.
func (c ContentMap) ValueOf(l types.Label) (types.Value, bool) {
	a, ok := c[l]
	return a, ok
}

// AppendExtras appends to dst, in label order, every bound label that
// order does not hold.
func (c ContentMap) AppendExtras(dst, order []types.Label) []types.Label {
	inOrder := make(map[types.Label]bool, len(order))
	for _, l := range order {
		inOrder[l] = true
	}
	start := len(dst)
	for l := range c {
		if !inOrder[l] {
			dst = append(dst, l)
		}
	}
	slices.SortFunc(dst[start:], types.Label.Compare)
	return dst
}

// Checkpoint appends a checkpoint record capturing cs and calls done once
// it is durable. The caller must capture cs at a quiescent instant: the
// in-memory state must equal a replay of the log's enqueued prefix (no
// write-ahead record in flight), or the checkpoint would disagree with
// the records around it.
//
// When compaction is enabled (SetCompact), the durability callback also
// discards the log prefix before the previous checkpoint, keeping two
// generations: the head of the retained log is always the previous valid
// checkpoint, so a bit-flipped latest checkpoint still falls back to a
// full replay of what is retained. A checkpoint torn by a crash never
// truncates anything (the device suppresses its completion).
func (w *WAL) Checkpoint(cs CheckpointState, done func()) {
	x := w.record()
	x.U8(recCheckpoint)
	if cs.HasView {
		x.U8(1)
		x.View(cs.View)
	} else {
		x.U8(0)
	}
	content := cs.Content
	if content == nil {
		content = ContentMap(nil)
	}
	x.U32(uint32(len(cs.Order)))
	for _, l := range cs.Order {
		a, _ := content.ValueOf(l)
		x.Label(l)
		x.Str(string(a))
	}
	extras := content.AppendExtras(nil, cs.Order)
	x.U32(uint32(len(extras)))
	for _, l := range extras {
		a, _ := content.ValueOf(l)
		x.Label(l)
		x.Str(string(a))
	}
	x.I32(cs.NextConfirm)
	x.ViewID(cs.HighPrimary)
	x.I32(cs.DeliveredCount)
	x.U32(uint32(len(cs.Pending)))
	for _, pv := range cs.Pending {
		x.I32(pv.Seq)
		x.Str(string(pv.Value))
	}
	x.I32(cs.BcastSeq)
	x.I32(cs.Incarnations)

	// Under group commit the checkpoint must sit at a physical frame
	// boundary: lastCkpt/prevCkpt feed TruncatePrefix, which slices the
	// durable image at these offsets, and Replay must find a frame header
	// there. Seal whatever batch is open, let the checkpoint open a fresh
	// batch, and seal again so it rides alone in its own frame.
	if w.gcOn {
		w.seal()
	}
	start := w.endOff
	w.append(x.Data(), func() {
		if w.compact && w.prevCkpt >= 0 {
			w.st.TruncatePrefix(w.prevCkpt)
		}
		if done != nil {
			done()
		}
	})
	if w.gcOn {
		w.seal()
	}
	w.prevCkpt = w.lastCkpt
	w.lastCkpt = start
}

// decodeCheckpoint folds a checkpoint payload (tag already consumed) into
// the snapshot, replacing the accumulated state wholesale; it returns a
// truncation reason for undecodable or internally inconsistent records.
func (s *Snapshot) decodeCheckpoint(r *codec.Reader, pending map[int]types.Value) string {
	hasView := r.U8() == 1
	var view types.View
	if hasView {
		view = r.View()
	}
	n := int(r.U32())
	if n < 0 || n > r.Rest() {
		return "bad checkpoint record: oversized order"
	}
	order := make([]types.Label, 0, n)
	content := make(ContentMap, n)
	for i := 0; i < n; i++ {
		l := r.Label()
		order = append(order, l)
		content[l] = types.Value(r.Str())
	}
	extras := int(r.U32())
	if extras < 0 || extras > r.Rest() {
		return "bad checkpoint record: oversized content"
	}
	for i := 0; i < extras; i++ {
		l := r.Label()
		content[l] = types.Value(r.Str())
	}
	next := r.I32()
	high := r.ViewID()
	delivered := r.I32()
	np := int(r.U32())
	if np < 0 || np > r.Rest() {
		return "bad checkpoint record: oversized pending"
	}
	pend := make([]PendingValue, 0, np)
	for i := 0; i < np; i++ {
		seq := r.I32()
		pend = append(pend, PendingValue{Seq: seq, Value: types.Value(r.Str())})
	}
	bcastSeq := r.I32()
	incarnations := r.I32()
	if r.Err() != nil || next < 1 || delivered < 0 || delivered > len(order) ||
		bcastSeq < 0 || incarnations < 0 {
		return "bad checkpoint record"
	}
	for _, pv := range pend {
		if pv.Seq < 1 {
			return "bad checkpoint record: pending seq"
		}
	}
	if s.HasView && !hasView {
		return "bad checkpoint record: view floor lost"
	}
	if s.HasView && view.ID.Less(s.View.ID) {
		return "bad checkpoint record: view below the installed floor"
	}

	s.HasView = hasView
	s.View = view
	s.Order = order
	s.Content = content
	s.NextConfirm = next
	s.HighPrimary = high
	s.Delivered = s.Delivered[:0]
	perOrigin := make(map[types.ProcID]int)
	for i := 0; i < delivered; i++ {
		l := order[i]
		perOrigin[l.Origin]++
		s.Delivered = append(s.Delivered, DeliveredRecord{
			Pos: i + 1, Label: l, From: l.Origin, FromSeq: perOrigin[l.Origin], Value: content[l],
		})
	}
	for seq := range pending {
		delete(pending, seq)
	}
	for _, pv := range pend {
		pending[pv.Seq] = pv.Value
	}
	s.BcastSeq = bcastSeq
	s.Incarnations = incarnations
	return ""
}

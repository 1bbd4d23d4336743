package recovery

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"

	"repro/internal/codec"
	"repro/internal/types"
)

// DeliveredRecord is one persisted client delivery.
type DeliveredRecord struct {
	Pos     int // 1-based position in the order
	Label   types.Label
	From    types.ProcID
	FromSeq int // the origin's submission index
	Value   types.Value
}

// PendingValue is a submission that was durable but never labeled: it
// re-enters the delay queue on restart and is labeled afresh in a later
// view.
type PendingValue struct {
	Seq   int
	Value types.Value
}

// Snapshot is the consistent state Replay reconstructs from a WAL.
type Snapshot struct {
	// HasView reports whether any view was durably installed; View is the
	// last one. Its ID is the membership floor: the restarted processor
	// must only install views strictly above it.
	HasView bool
	View    types.View
	// Order, NextConfirm and HighPrimary mirror the VStoTO state of the
	// same names as of the last durable establishment, extended by durable
	// order appends.
	Order       []types.Label
	NextConfirm int
	HighPrimary types.ViewID
	// Content is the label→value relation recoverable from this log.
	Content ContentMap
	// Delivered is the persisted delivery prefix, in position order.
	Delivered []DeliveredRecord
	// Pending are durable submissions never labeled, in submission order.
	Pending []PendingValue
	// BcastSeq is the highest durable submission sequence number.
	BcastSeq int
	// Incarnations counts the durable recovery markers: the number of
	// restarts this log has survived. The next incarnation is
	// Incarnations+1. A checkpoint record restores the count as of its
	// capture; markers after it add on.
	Incarnations int
	// Checkpoints counts the valid checkpoint records replayed;
	// CheckpointAt and PrevCheckpointAt are the byte offsets (within disk)
	// of the latest and second-latest, -1 when absent. Replay resumes
	// accumulating from the latest checkpoint's state, which is what makes
	// compaction (discarding everything before PrevCheckpointAt) safe.
	Checkpoints      int
	CheckpointAt     int
	PrevCheckpointAt int
	// Records counts the records replayed.
	Records int
	// Truncated is empty for a clean log; otherwise it describes the first
	// torn or corrupt record, at byte offset TruncatedAt, where replay
	// stopped. Everything after that offset is ignored.
	Truncated   string
	TruncatedAt int
}

// Replay folds a durable byte image back into a Snapshot. It never fails:
// a torn or corrupt tail — short frame header, oversized length, checksum
// mismatch, undecodable or inconsistent record — truncates the replay at
// that record, and the fields report what was kept. Malformed input never
// panics.
func Replay(disk []byte) *Snapshot {
	s := &Snapshot{
		NextConfirm:      1,
		Content:          make(ContentMap),
		CheckpointAt:     -1,
		PrevCheckpointAt: -1,
	}
	pending := make(map[int]types.Value)
	off := 0
	truncate := func(reason string) {
		s.Truncated = reason
		s.TruncatedAt = off
	}
	for off < len(disk) {
		if len(disk)-off < frameHeader {
			truncate(fmt.Sprintf("torn frame header: %d trailing bytes", len(disk)-off))
			break
		}
		hdr := codec.NewReader(disk[off : off+frameHeader])
		length := int(hdr.U32())
		sum := hdr.U32()
		if length <= 0 || length > len(disk)-off-frameHeader {
			truncate(fmt.Sprintf("torn record: length %d with %d bytes left", length, len(disk)-off-frameHeader))
			break
		}
		payload := disk[off+frameHeader : off+frameHeader+length]
		if crc32.ChecksumIEEE(payload) != sum {
			truncate("checksum mismatch")
			break
		}
		var reason string
		if payload[0] == recBatch || payload[0] == recBatchVar {
			reason = s.applyBatch(payload, pending, off)
		} else {
			reason = s.applyRecord(payload, pending, off)
		}
		if reason != "" {
			// A record that decodes but is invalid may already have applied
			// part of its effect to the snapshot (a batch: a prefix of its
			// records; an establishment: its in-place order update). The
			// kept log must replay identically on the next restart, so
			// rebuild from the clean prefix — it replayed without
			// truncation a moment ago, making the recursion depth exactly
			// one.
			clean := Replay(disk[:off])
			clean.Truncated = reason
			clean.TruncatedAt = off
			return clean
		}
		off += frameHeader + length
	}
	if s.Truncated == "" {
		s.TruncatedAt = len(disk)
	}
	for seq, a := range pending {
		s.Pending = append(s.Pending, PendingValue{Seq: seq, Value: a})
	}
	sort.Slice(s.Pending, func(i, j int) bool { return s.Pending[i].Seq < s.Pending[j].Seq })
	if n := len(s.Delivered); n > 0 && s.NextConfirm <= s.Delivered[n-1].Pos {
		s.NextConfirm = s.Delivered[n-1].Pos + 1
	}
	return s
}

// applyBatch folds a group-commit batch (outer CRC already verified) into
// the snapshot: a sequence of [len | record payload] sub-records — len a
// u32 under recBatch, a uvarint under recBatchVar — each applied exactly
// as a standalone record. A checkpoint inside a batch is located by the
// batch frame's start offset — the only physical frame boundary
// compaction can truncate at. Any structural or semantic failure returns
// a truncation reason; the caller discards the whole batch.
func (s *Snapshot) applyBatch(payload []byte, pending map[int]types.Value, off int) string {
	varLens := payload[0] == recBatchVar
	body := payload[1:]
	if len(body) == 0 {
		return "empty batch record"
	}
	for len(body) > 0 {
		var ln, hdr int
		if varLens {
			r := codec.NewReader(body)
			ln = int(min(r.Uvarint(), uint64(len(body))))
			if r.Err() != nil {
				return fmt.Sprintf("torn batch sub-record length: %v", r.Err())
			}
			hdr = len(body) - r.Rest()
		} else {
			if len(body) < 4 {
				return fmt.Sprintf("torn batch sub-record length: %d trailing bytes", len(body))
			}
			ln, hdr = int(binary.LittleEndian.Uint32(body[:4])), 4
		}
		if ln <= 0 || ln > len(body)-hdr {
			return fmt.Sprintf("bad batch sub-record: length %d with %d bytes left", ln, len(body)-hdr)
		}
		sub := body[hdr : hdr+ln]
		if sub[0] == recBatch || sub[0] == recBatchVar {
			return "nested batch record"
		}
		if reason := s.applyRecord(sub, pending, off); reason != "" {
			return reason
		}
		body = body[hdr+ln:]
	}
	return ""
}

// applyRecord folds one record payload, framed at byte offset off, into
// the snapshot; it returns a truncation reason for undecodable or
// internally inconsistent records.
func (s *Snapshot) applyRecord(payload []byte, pending map[int]types.Value, off int) string {
	r := codec.NewReader(payload)
	switch tag := r.U8(); tag {
	case recView:
		v := r.View()
		if r.Err() != nil {
			return "bad view record"
		}
		if s.HasView && !s.View.ID.Less(v.ID) {
			return fmt.Sprintf("non-monotonic view record %v after %v", v.ID, s.View.ID)
		}
		s.View = v
		s.HasView = true
	case recEstablish, recEstablishSuffix:
		keep := 0
		if tag == recEstablishSuffix {
			keep = int(r.U32())
		}
		n := int(r.U32())
		if n < 0 || n > r.Rest() {
			return "bad establish record: oversized order"
		}
		if keep > len(s.Order) {
			return fmt.Sprintf("establish keep %d beyond order of %d", keep, len(s.Order))
		}
		// In place: a bad record's partial update is undone by Replay's
		// rebuild from the clean prefix.
		s.Order = s.Order[:keep]
		for i := 0; i < n; i++ {
			s.Order = append(s.Order, r.Label())
		}
		next := r.I32()
		high := r.ViewID()
		if r.Err() != nil || next < 1 {
			return "bad establish record"
		}
		s.NextConfirm = next
		s.HighPrimary = high
	case recEstablishVar:
		keep := r.Uvarint()
		n := r.Uvarint()
		if r.Err() != nil || n > uint64(r.Rest()) {
			return "bad establish record: oversized order"
		}
		if keep > uint64(len(s.Order)) {
			return fmt.Sprintf("establish keep %d beyond order of %d", keep, len(s.Order))
		}
		// In place, as above.
		s.Order = s.Order[:keep]
		for i := uint64(0); i < n; i++ {
			l := r.VarLabel()
			s.Content[l] = types.Value(r.VarStr())
			s.Order = append(s.Order, l)
		}
		next := r.Varint()
		high := r.VarViewID()
		if r.Err() != nil || next < 1 {
			return "bad establish record"
		}
		s.NextConfirm = int(next)
		s.HighPrimary = high
	case recOrderAppend, recOrderAppendVar:
		var l types.Label
		var a types.Value
		if tag == recOrderAppend {
			l, a = r.Label(), types.Value(r.Str())
		} else {
			l, a = r.VarLabel(), types.Value(r.VarStr())
		}
		if r.Err() != nil {
			return "bad order-append record"
		}
		s.Order = append(s.Order, l)
		s.Content[l] = a
	case recBcast, recBcastVar:
		var seq int
		var a types.Value
		if tag == recBcast {
			seq, a = r.I32(), types.Value(r.Str())
		} else {
			seq, a = int(r.Varint()), types.Value(r.VarStr())
		}
		if r.Err() != nil || seq < 1 {
			return "bad bcast record"
		}
		pending[seq] = a
		if seq > s.BcastSeq {
			s.BcastSeq = seq
		}
	case recLabel, recLabelVar:
		var seq int
		var l types.Label
		var a types.Value
		if tag == recLabel {
			seq, l, a = r.I32(), r.Label(), types.Value(r.Str())
		} else {
			var ok bool
			seq, l = int(r.Varint()), r.VarLabel()
			if a, ok = pending[seq]; !ok && r.Err() == nil {
				return fmt.Sprintf("label record for submission %d with no pending value", seq)
			}
		}
		if r.Err() != nil {
			return "bad label record"
		}
		delete(pending, seq)
		s.Content[l] = a
	case recDeliver, recDeliverVar, recDeliverValueVar:
		var pos, fromSeq int
		var l types.Label
		var from types.ProcID
		var a types.Value
		if tag == recDeliver {
			pos, l, from, fromSeq, a = r.I32(), r.Label(), types.ProcID(r.I32()), r.I32(), types.Value(r.Str())
		} else {
			pos, l, from, fromSeq = int(r.Varint()), r.VarLabel(), types.ProcID(r.Varint()), int(r.Varint())
			if tag == recDeliverValueVar {
				a = types.Value(r.VarStr())
			}
		}
		if r.Err() != nil {
			return "bad deliver record"
		}
		if pos != len(s.Delivered)+1 {
			return fmt.Sprintf("deliver record at position %d, want %d", pos, len(s.Delivered)+1)
		}
		if pos > len(s.Order) || s.Order[pos-1] != l {
			return fmt.Sprintf("deliver record label %v not at order position %d", l, pos)
		}
		if tag == recDeliverVar {
			var ok bool
			if a, ok = s.Content[l]; !ok {
				return fmt.Sprintf("deliver record label %v has no replayed value", l)
			}
		}
		s.Content[l] = a
		s.Delivered = append(s.Delivered, DeliveredRecord{Pos: pos, Label: l, From: from, FromSeq: fromSeq, Value: a})
	case recRecovered:
		n := r.I32()
		if r.Err() != nil || n < 1 {
			return "bad recovery marker"
		}
		s.Incarnations++
	case recCheckpoint:
		if reason := s.decodeCheckpoint(r, pending); reason != "" {
			return reason
		}
	default:
		return fmt.Sprintf("unknown record tag %d", tag)
	}
	if r.Rest() != 0 {
		return fmt.Sprintf("record tag %d has %d trailing bytes", payload[0], r.Rest())
	}
	if payload[0] == recCheckpoint {
		s.PrevCheckpointAt = s.CheckpointAt
		s.CheckpointAt = off
		s.Checkpoints++
	}
	s.Records++
	return ""
}

// ViewFloor returns the identifier of the last durably installed view, or
// ⊥ when none: the strict lower bound for every view the restarted
// processor may install or propose.
func (s *Snapshot) ViewFloor() types.ViewID {
	if !s.HasView {
		return types.Bottom
	}
	return s.View.ID
}

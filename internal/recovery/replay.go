package recovery

import (
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
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
	// Refused is non-nil when the image holds a record of a retired format;
	// it wraps ErrOlderFormat and names the tag and the offset of its
	// frame. Replay stopped there and the other fields describe the records
	// before it, but nothing is torn: Truncated is empty and TruncatedAt is
	// the image's length, so no caller that discards a torn tail cuts a
	// refused image. Booting over one would lose its history; refuse it.
	Refused error
}

// ErrOlderFormat is the error a refused image's Snapshot.Refused wraps: the
// image holds a record of a retired format (retiredTags) — the older
// fixed-width records, or a Deliver that carried its value — which Replay
// no longer reads.
var ErrOlderFormat = errors.New("WAL image written in an older record format")

// Replay folds a durable byte image back into a Snapshot. It never fails:
// a torn or corrupt tail — short frame header, oversized length, checksum
// mismatch, undecodable or inconsistent record — truncates the replay at
// that record, and the fields report what was kept; a record of a retired
// format stops it with Refused set. Malformed input never panics.
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
		var err error
		if payload[0] == recBatchVar {
			err = s.applyBatch(payload, pending, off)
		} else {
			err = s.applyRecord(payload, pending, off)
		}
		if err != nil {
			// A record that decodes but is invalid may already have applied
			// part of its effect to the snapshot (a batch: a prefix of its
			// records; an establishment: its in-place order update). The
			// kept log must replay identically on the next restart, so
			// rebuild from the clean prefix — it replayed without
			// truncation a moment ago, making the recursion depth exactly
			// one.
			clean := Replay(disk[:off])
			if errors.Is(err, ErrOlderFormat) {
				clean.Refused = fmt.Errorf("recovery: frame at offset %d: %w", off, err)
				clean.TruncatedAt = len(disk)
			} else {
				clean.Truncated = err.Error()
				clean.TruncatedAt = off
			}
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
// the snapshot: a sequence of [uvarint len | record payload] sub-records,
// each applied exactly as a standalone record. A checkpoint inside a batch
// is located by the batch frame's start offset — the only physical frame
// boundary compaction can truncate at. Any structural or semantic failure
// returns an error; the caller discards the whole batch.
func (s *Snapshot) applyBatch(payload []byte, pending map[int]types.Value, off int) error {
	body := payload[1:]
	if len(body) == 0 {
		return errors.New("empty batch record")
	}
	for len(body) > 0 {
		r := codec.NewReader(body)
		ln := int(min(r.Uvarint(), uint64(len(body))))
		if r.Err() != nil {
			return fmt.Errorf("torn batch sub-record length: %v", r.Err())
		}
		hdr := len(body) - r.Rest()
		if ln <= 0 || ln > len(body)-hdr {
			return fmt.Errorf("bad batch sub-record: length %d with %d bytes left", ln, len(body)-hdr)
		}
		sub := body[hdr : hdr+ln]
		if sub[0] == recBatchVar {
			return errors.New("nested batch record")
		}
		if err := s.applyRecord(sub, pending, off); err != nil {
			return err
		}
		body = body[hdr+ln:]
	}
	return nil
}

// applyRecord folds one record payload, framed at byte offset off, into
// the snapshot; it returns an error for undecodable or internally
// inconsistent records, wrapping ErrOlderFormat for a retired tag.
func (s *Snapshot) applyRecord(payload []byte, pending map[int]types.Value, off int) error {
	r := codec.NewReader(payload)
	switch tag := r.U8(); tag {
	case recView:
		v := r.View()
		if r.Err() != nil {
			return errors.New("bad view record")
		}
		if s.HasView && !s.View.ID.Less(v.ID) {
			return fmt.Errorf("non-monotonic view record %v after %v", v.ID, s.View.ID)
		}
		s.View = v
		s.HasView = true
	case recEstablishVar:
		keep := r.Uvarint()
		n := r.Uvarint()
		if r.Err() != nil || n > uint64(r.Rest()) {
			return errors.New("bad establish record: oversized order")
		}
		if keep > uint64(len(s.Order)) {
			return fmt.Errorf("establish keep %d beyond order of %d", keep, len(s.Order))
		}
		// In place: a bad record's partial update is undone by Replay's
		// rebuild from the clean prefix.
		s.Order = s.Order[:keep]
		for i := uint64(0); i < n; i++ {
			l := r.VarLabel()
			s.Content[l] = types.Value(r.VarStr())
			s.Order = append(s.Order, l)
		}
		next := r.Varint()
		high := r.VarViewID()
		if r.Err() != nil || next < 1 {
			return errors.New("bad establish record")
		}
		s.NextConfirm = int(next)
		s.HighPrimary = high
	case recOrderAppendVar:
		l, a := r.VarLabel(), types.Value(r.VarStr())
		if r.Err() != nil {
			return errors.New("bad order-append record")
		}
		s.Order = append(s.Order, l)
		s.Content[l] = a
	case recBcastVar:
		seq, a := int(r.Varint()), types.Value(r.VarStr())
		if r.Err() != nil || seq < 1 {
			return errors.New("bad bcast record")
		}
		pending[seq] = a
		if seq > s.BcastSeq {
			s.BcastSeq = seq
		}
	case recLabelVar:
		seq, l := int(r.Varint()), r.VarLabel()
		if r.Err() != nil {
			return errors.New("bad label record")
		}
		a, ok := pending[seq]
		if !ok {
			return fmt.Errorf("label record for submission %d with no pending value", seq)
		}
		delete(pending, seq)
		s.Content[l] = a
	case recDeliverVar:
		pos, l, from, fromSeq := int(r.Varint()), r.VarLabel(), types.ProcID(r.Varint()), int(r.Varint())
		if r.Err() != nil {
			return errors.New("bad deliver record")
		}
		if pos != len(s.Delivered)+1 {
			return fmt.Errorf("deliver record at position %d, want %d", pos, len(s.Delivered)+1)
		}
		if pos > len(s.Order) || s.Order[pos-1] != l {
			return fmt.Errorf("deliver record label %v not at order position %d", l, pos)
		}
		// Every label of the replayed order has its value in the content:
		// each record that orders a label carries its value.
		s.Delivered = append(s.Delivered, DeliveredRecord{Pos: pos, Label: l, From: from, FromSeq: fromSeq, Value: s.Content[l]})
	case recRecovered:
		n := r.I32()
		if r.Err() != nil || n < 1 {
			return errors.New("bad recovery marker")
		}
		s.Incarnations++
	case recCheckpoint:
		if reason := s.decodeCheckpoint(r, pending); reason != "" {
			return errors.New(reason)
		}
	default:
		if slices.Contains(retiredTags, tag) {
			return fmt.Errorf("record tag %d: %w", tag, ErrOlderFormat)
		}
		return fmt.Errorf("unknown record tag %d", tag)
	}
	if r.Rest() != 0 {
		return fmt.Errorf("record tag %d has %d trailing bytes", payload[0], r.Rest())
	}
	if payload[0] == recCheckpoint {
		s.PrevCheckpointAt = s.CheckpointAt
		s.CheckpointAt = off
		s.Checkpoints++
	}
	s.Records++
	return nil
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

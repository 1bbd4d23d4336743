// Package recovery gives each processor a write-ahead log over
// internal/storage so that an amnesia crash (failures.Amnesia — stop plus
// loss of all volatile state) can be survived: the stack appends a record
// for every VStoTO-critical state change as the protocol runs, and on
// restart Replay folds the durable records back into a consistent
// Snapshot that the stack uses to rebuild the processor before it rejoins
// through the ordinary membership protocol.
//
// What is persisted, and why exactly this set:
//
//   - views (View) and establishments (Establish): the membership floor —
//     a restarted processor must never install or propose a view at or
//     below one it already installed (the VS checker's local monotonicity).
//     View records are write-ahead: the stack gates installation on the
//     record's completion (membership.Former.Gate), so an installation is
//     never announced unless its record is durable and the restored floor
//     always covers every announced installation. Establishment records
//     keep order/nextconfirm/highprimary at the last state exchange, so
//     representative selection after a whole-group crash cannot regress
//     the confirmed prefix. A record carries only what the exchange
//     changed: how many leading labels of the order the log already
//     replays to stay, and the new suffix after them — O(changed labels)
//     per view change, not O(history);
//   - primary-view order appends (OrderAppend): between establishments the
//     order grows one label at a time; without these the restored order
//     could be shorter than a peer's persisted delivered prefix, and a
//     later establishment from this processor's summary would reorder it;
//   - client submissions (Bcast) and label assignments (Label): every
//     value is durable at its origin, so a value that existed only in
//     wiped volatile state elsewhere still reaches the total order after
//     the origin restarts;
//   - deliveries (Deliver): written *before* the client sees the value
//     (the stack releases a delivery only from the record's completion
//     callback), so the persisted delivery prefix equals the delivered
//     prefix exactly — the invariant props.CheckRejoinSafety pins;
//   - recovery markers (Recovered): written once per restart, before the
//     rebuilt node takes any step, and waited on for durability. Counting
//     them yields a strictly increasing incarnation number that partitions
//     the VS send-sequence space, so MsgIDs never repeat across
//     incarnations (the VS checker rejects duplicate gpsnd identifiers)
//     no matter how far the wiped incarnation's volatile counter ran ahead
//     of stable storage.
//
// Records travel in group-commit batch frames, each length-prefixed and
// CRC-checksummed; Replay truncates at the first torn or corrupt frame,
// which together with write-ahead delivery gating makes a torn tail safe:
// whatever was lost had not been released to any client at this processor.
//
// A value's bytes are logged once per processor — in the OrderAppend or
// establishment that put its label in the order — and once more at its
// origin, in the Bcast. Label and Deliver records carry no value: replay
// takes it from the pending submissions and the content it has already
// rebuilt, and truncates at a Label whose submission it does not hold. Every
// integer, label field and length in these records is a varint. Replay
// reads exactly the records the writer emits: an image of the older
// fixed-width format (a value in every record) is refused with
// ErrOlderFormat, never truncated.
package recovery

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"time"

	"repro/internal/codec"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/types"
)

// Record tags: every integer, label field and length of the records a
// varint, apart from the rare recView, recRecovered and recCheckpoint. The
// numbers missing here belong to retired formats (retiredTags).
const (
	recView       byte = 1
	recRecovered  byte = 7
	recCheckpoint byte = 8
	// recBatchVar is a group-commit batch: its payload is a sequence of
	// [uvarint len | record payload] sub-records sharing the outer frame's
	// CRC. The batch is the atom of durability — a tear anywhere inside it
	// fails the outer checksum and Replay discards the batch whole, exactly
	// as it discards a torn single record. That is what keeps write-ahead
	// gating sound under coalescing: all of a batch's completion callbacks
	// ride the one covering storage write, so either every record of the
	// batch is durable and acknowledged, or none of its effects were
	// acknowledged.
	recBatchVar byte = 11
	// recEstablishVar is an establishment (Establish): keep, the suffix as
	// (label, value) pairs, nextconfirm, highprimary.
	recEstablishVar   byte = 12
	recOrderAppendVar byte = 13 // label, value
	recBcastVar       byte = 14 // seq, value
	recLabelVar       byte = 15 // seq, label; the value is the pending submission's
	recDeliverVar     byte = 16 // pos, label, origin, origin seq; the value is content's
)

// retiredTags are the tags of the older fixed-width format — 2 to 6 the
// whole-order establishment, order append, bcast, label and deliver, 9 the
// u32-length batch, 10 the fixed-width establishment — and 17, a compact
// deliver that carried its value. The writer never emits them; Replay
// refuses an image that holds one (ErrOlderFormat).
var retiredTags = []byte{2, 3, 4, 5, 6, 9, 10, 17}

// frameHeader is the per-frame overhead: u32 payload length + u32 CRC.
const frameHeader = 8

// putFrameHeader fills the frameHeader bytes reserved at the front of
// frame: the length of the payload after them and its CRC-32.
func putFrameHeader(frame []byte) {
	binary.LittleEndian.PutUint32(frame, uint32(len(frame)-frameHeader))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(frame[frameHeader:]))
}

// WAL is one processor's write-ahead log on a storage device, written by
// group commit. All appenders are asynchronous: done (which may be nil)
// fires when the record is durable, and never fires if the owner crashes
// first (the storage layer's Drop suppresses pending completions).
//
// Records appended while a storage write is outstanding coalesce into one
// covering write instead of queueing as individual writes behind the
// device's single head. The first record on an idle device writes at once
// and batches form only behind the in-flight write, so an idle, lightly
// loaded log pays no extra latency, and a loaded one pays one λ per batch.
// The done callbacks of a batch fire in append order, only once its
// covering write is durable, so every write-ahead gate in the stack (view
// installs, delivery release, recovery markers) keeps its meaning. On disk
// a batch is a single recBatchVar frame whose CRC covers all its records:
// Replay discards a torn batch whole, which keeps "acknowledged ⇔ durable"
// batch-wide.
type WAL struct {
	st *storage.Stable

	// enc is the reusable record-payload scratch: append copies the payload
	// into the open batch synchronously, so the scratch is free again by
	// the time an appender returns.
	enc codec.Writer
	// frames recycles completed frame buffers. A frame buffer is owned by
	// the storage layer until its batch is durable (the device copies it
	// into the disk image at completion), so recycling happens in the
	// completion wrapper; buffers lost to a crash (Drop suppresses
	// completions) are simply abandoned to the GC.
	frames [][]byte

	// Checkpoint bookkeeping, all in logical log offsets (0 = the first
	// byte the log ever held; compaction never renumbers). endOff is the
	// offset the next record will be framed at; lastCkpt/prevCkpt are the
	// start offsets of the two most recent checkpoint records (-1 when
	// absent).
	// Offsets track *enqueued* records and run ahead of durability; a
	// crash discards the queue, and Resync re-derives them from the
	// replayed image.
	compact  bool
	endOff   int
	lastCkpt int
	prevCkpt int

	// Group-commit state. batch is the open batch buffer (outer frame
	// header reserved, recBatchVar tag, then sub-records), sealed into one
	// storage write when the head frees up; batchDones fire in append order
	// from the covering write's completion; flights counts batch writes
	// handed to the device whose completions are still pending.
	batch      []byte
	batchDones []func()
	batchRecs  int
	flights    int

	// Observability handles (Instrument; nil when disabled).
	mRecords   *obs.Counter
	mBytes     *obs.Counter
	mBatches   *obs.Counter
	mBatchRecs *obs.Counter
}

// New wraps a storage device as a WAL.
func New(st *storage.Stable) *WAL { return &WAL{st: st, lastCkpt: -1, prevCkpt: -1} }

// SetCompact enables physical compaction: when a checkpoint record
// becomes durable, the log prefix before the *previous* checkpoint is
// discarded (storage.TruncatePrefix). Two generations are always
// retained, so a latest checkpoint that later proves corrupt still falls
// back to the previous one plus every record after it.
func (w *WAL) SetCompact(on bool) { w.compact = on }

// SetGroupCommit does nothing: every WAL group-commits from New.
//
// Deprecated: the benchmark's WAL layer still calls it with 0; any window
// writes the same image as no call at all.
func (w *WAL) SetGroupCommit(time.Duration) {}

// EndOffset returns the logical offset at which the next record will be
// framed (enqueued records included).
func (w *WAL) EndOffset() int { return w.endOff }

// SinceCheckpoint returns the bytes framed since the last checkpoint was
// enqueued (since log start when none) — the checkpoint trigger's input.
func (w *WAL) SinceCheckpoint() int {
	if w.lastCkpt < 0 {
		return w.endOff
	}
	return w.endOff - w.lastCkpt
}

// Resync re-derives the WAL's bookkeeping after a crash, or at a boot
// over an existing image, from snap: the replay of the retained image,
// whose first byte sits at logical offset base. The log ends where the
// replay stopped (the caller has discarded the torn tail) and the two most
// recent valid checkpoint records are the replay's.
func (w *WAL) Resync(base int, snap *Snapshot) {
	w.endOff = base + snap.TruncatedAt
	w.lastCkpt = logicalOff(base, snap.CheckpointAt)
	w.prevCkpt = logicalOff(base, snap.PrevCheckpointAt)
	// A crash abandoned whatever batch was open or in flight: the device's
	// Drop suppressed every pending completion, so the outstanding-write
	// accounting must be reset or the new incarnation's appends would wait
	// forever for a completion that never comes.
	w.batch = nil
	w.batchDones = nil
	w.batchRecs = 0
	w.flights = 0
}

// logicalOff rebases a replay-relative offset (within the retained
// image) to the log's logical coordinates; -1 (absent) stays -1.
func logicalOff(base, off int) int {
	if off < 0 {
		return -1
	}
	return base + off
}

// Storage returns the underlying device.
func (w *WAL) Storage() *storage.Stable { return w.st }

// Instrument binds the wal.records / wal.bytes counters from the registry
// (nil disables at zero cost) and instruments the underlying device.
func (w *WAL) Instrument(reg *obs.Registry) {
	w.mRecords = reg.Counter("wal.records")
	w.mBytes = reg.Counter("wal.bytes")
	w.mBatches = reg.Counter("wal.batches")
	w.mBatchRecs = reg.Counter("wal.batch_records")
	w.st.Instrument(reg)
}

// record resets and returns the reusable payload scratch. Every appender
// builds its payload here; append then copies it into a frame buffer
// before returning, so one scratch per WAL suffices.
func (w *WAL) record() *codec.Writer {
	w.enc.Reset()
	return &w.enc
}

// append adds the record to the open batch, opening one if needed, and
// writes the batch immediately if no batch write is outstanding, or when
// the outstanding one completes (flush from the completion callback)
// otherwise — the classic group-commit discipline.
func (w *WAL) append(payload []byte, done func()) {
	if len(w.batch) == 0 {
		var buf []byte
		if k := len(w.frames); k > 0 {
			buf = w.frames[k-1][:0]
			w.frames[k-1] = nil
			w.frames = w.frames[:k-1]
		}
		// Reserve the outer frame header (filled in by seal) and tag the
		// payload as a batch.
		buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
		buf = append(buf, recBatchVar)
		w.batch = buf
		w.endOff += frameHeader + 1
		w.mBytes.Add(frameHeader + 1)
	}
	before := len(w.batch)
	w.batch = binary.AppendUvarint(w.batch, uint64(len(payload)))
	w.batch = append(w.batch, payload...)
	n := len(w.batch) - before
	w.endOff += n
	w.mRecords.Inc()
	w.mBytes.Add(int64(n))
	w.batchDones = append(w.batchDones, done)
	w.batchRecs++
	w.flush()
}

// flush seals the open batch into a storage write, unless a batch write is
// already outstanding — then the completion callback re-flushes, and the
// records accumulated meanwhile ride the next covering write together.
func (w *WAL) flush() {
	if w.flights > 0 {
		return
	}
	w.seal()
}

// seal finalizes the open batch's outer frame (length + CRC over the whole
// batch payload, so any tear inside the batch voids it whole) and hands it
// to the device. The completion recycles the buffer and fires the batch's
// done callbacks in append order — only now are the records durable — then
// flushes whatever batch formed behind this write.
func (w *WAL) seal() {
	if len(w.batch) == 0 {
		return
	}
	buf, dones, recs := w.batch, w.batchDones, w.batchRecs
	w.batch, w.batchDones, w.batchRecs = nil, nil, 0
	putFrameHeader(buf)
	w.flights++
	w.mBatches.Inc()
	w.mBatchRecs.Add(int64(recs))
	w.st.Append(buf, func() {
		w.frames = append(w.frames, buf)
		// The flight stays accounted while the dones run: a done that
		// appends (delivery release cascading into the next record) must
		// see an outstanding write and coalesce, not trigger a write per
		// record. The flights > 0 guard covers a Resync racing in from a
		// done callback, which resets the accounting under us.
		for _, d := range dones {
			if d != nil {
				d()
			}
		}
		if w.flights > 0 {
			w.flights--
		}
		w.flush()
	})
}

// View records an installed view.
func (w *WAL) View(v types.View, done func()) {
	x := w.record()
	x.U8(recView)
	x.View(v)
	w.append(x.Data(), done)
}

// Establish records the outcome of a state exchange as what it changed:
// the established order is the first keep labels of the order the log
// already replays to, followed by suffix; next and high are the new
// nextconfirm and highprimary. Each suffix label is written with its value
// from content, so the log holds the value of every position it orders;
// a suffix label content does not bind breaks VStoTO's invariant that the
// order lies inside the content, and Establish panics. The caller must
// pass a keep no larger than that replayed order — Replay truncates at a
// record that keeps more. It is also written once at WAL creation (keep 0,
// no suffix, nil content) for processors that start inside the initial
// view, so the pre-first-view-change state is durable too.
func (w *WAL) Establish(keep int, suffix []types.Label, content Content, next int, high types.ViewID, done func()) {
	x := w.record()
	x.U8(recEstablishVar)
	x.Uvarint(uint64(keep))
	x.Uvarint(uint64(len(suffix)))
	if content == nil {
		content = ContentMap(nil)
	}
	for _, l := range suffix {
		a, ok := content.ValueOf(l)
		if !ok {
			panic(fmt.Sprintf("recovery: established order label %v has no value", l))
		}
		x.VarLabel(l)
		x.VarStr(string(a))
	}
	x.Varint(int64(next))
	x.VarViewID(high)
	w.append(x.Data(), done)
}

// OrderAppend records label l, with its value, appended to the order at
// position pos (1-based) in an established primary view.
func (w *WAL) OrderAppend(pos int, l types.Label, a types.Value, done func()) {
	x := w.record()
	x.U8(recOrderAppendVar)
	x.VarLabel(l)
	x.VarStr(string(a))
	w.append(x.Data(), done)
}

// Bcast records a client submission: the origin-local sequence number and
// the value.
func (w *WAL) Bcast(seq int, a types.Value, done func()) {
	x := w.record()
	x.U8(recBcastVar)
	x.Varint(int64(seq))
	x.VarStr(string(a))
	w.append(x.Data(), done)
}

// Label records the label assigned to the submission with the given
// origin-local sequence number. The submission's value a is not written
// again: its Bcast record (or a checkpoint's pending list) already holds
// it. The parameter stays because the benchmark's WAL layer passes it.
func (w *WAL) Label(seq int, l types.Label, a types.Value, done func()) {
	x := w.record()
	x.U8(recLabelVar)
	x.Varint(int64(seq))
	x.VarLabel(l)
	w.append(x.Data(), done)
}

// Deliver records the release of order position pos (1-based) to the
// client: the label, its origin and the origin's submission index. The
// value a is not written: the OrderAppend, establishment or checkpoint
// that ordered position pos already holds it. The parameter stays because
// the benchmark's WAL layer passes it. The stack must perform the
// client-visible delivery only from this record's completion callback
// (write-ahead), so that the durable delivery prefix never lags the
// delivered one.
func (w *WAL) Deliver(pos int, l types.Label, from types.ProcID, fromSeq int, a types.Value, done func()) {
	x := w.record()
	x.U8(recDeliverVar)
	x.Varint(int64(pos))
	x.VarLabel(l)
	x.Varint(int64(from))
	x.Varint(int64(fromSeq))
	w.append(x.Data(), done)
}

// Recovered records the start of incarnation inc after an amnesia crash.
// The restarting stack writes it first and starts the rebuilt node only
// from this record's completion callback, so every step the new
// incarnation takes is preceded by a durable marker — which makes the
// marker count a reliable incarnation number even across repeated crashes
// during recovery.
func (w *WAL) Recovered(inc int, done func()) {
	x := w.record()
	x.U8(recRecovered)
	x.I32(inc)
	w.append(x.Data(), done)
}

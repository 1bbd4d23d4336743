// Package storage simulates stable storage with a configurable write
// latency. The paper's introduction contrasts VStoTO with the algorithms
// of Keidar and Dolev, which "write the message to stable storage before it
// is ordered or acknowledged", trading latency for crash tolerance; this
// package provides the latency-bearing log that the baseline protocol
// writes through (experiment E5) and the append-only byte device that the
// crash-recovery WAL of internal/recovery persists into.
//
// The device models exactly the failure surface a recovery layer must
// survive: a single write head (one write in flight, the rest queued), an
// owner crash that tears the in-flight write to a strict prefix and
// silently discards everything queued behind it (Drop), a head that holds
// a due write while its owner is paused (Pause), and injectable bit flips
// in the durable image (FlipBit). Durable bytes themselves
// survive every crash — amnesia wipes the owner's volatile state, and the
// write queue is volatile, but the disk is not.
package storage

import (
	"fmt"
	"io"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// Stable is a simulated stable-storage device. Writes complete after a
// fixed latency; at most one write is in flight at a time (a single log
// device), with further writes queuing behind it.
type Stable struct {
	sim     *sim.Sim
	latency time.Duration

	busy    bool
	head    pending // the write under the head, while busy
	held    bool    // Pause: the head completes nothing until Resume
	due     bool    // the head's write fell due while held
	queue   []pending
	writes  int
	maxQLen int

	// segs is the durable image in segSize segments: every segment but the
	// last is full, and the image starts at byte segOff of segs[0]. Growth
	// never copies the image, and TruncatePrefix frees whole segments. It
	// stays empty while a Mirror holds the image.
	segs   [][]byte
	segOff int
	size   int // durable bytes in [base, base+size)
	base   int // logical offset of the first retained byte (advanced by TruncatePrefix)
	epoch  int // bumped by Drop; stale completions are discarded

	// TornPrefix, when non-nil, decides how many bytes of an n-byte write
	// that is in flight at the instant of a Drop have reached the platter.
	// It must return a value in [0, n). The default keeps half.
	TornPrefix func(n int) int

	// Mirror, when non-nil, receives every byte the moment it becomes
	// durable on the simulated device (completed writes and torn prefixes
	// alike), in durability order. The live daemon points it at a real
	// file, so a restarted process can replay exactly what the simulated
	// device held; a mirror write error panics, because a divergence
	// between the device and its mirror silently breaks crash recovery.
	// A device that will be compacted (TruncatePrefix) needs a mirror
	// that also implements MirrorTruncator.
	//
	// The mirror then *is* the image: a mirrored device keeps only the
	// image's length (Size, Base, TruncatePrefix and SetBase stay exact),
	// not a second copy of every byte that nothing but the simulated crash
	// path would read — Contents returns nothing and FlipBit has nothing to
	// flip. Attach the mirror before the first write.
	Mirror io.Writer

	// Observability handles (Instrument; all nil when disabled).
	mWrites    *obs.Counter
	mBytes     *obs.Counter
	mDrops     *obs.Counter
	mTornBytes *obs.Counter
	mLatency   *obs.Histogram // enqueue → durable, queueing included
	gMaxQueue  *obs.Gauge
}

// segSize is the size of one segment of a device's durable image;
// firstSeg is the capacity an image's first segment starts at.
const (
	segSize  = 64 << 10
	firstSeg = 1 << 10
)

type pending struct {
	data []byte
	done func()
	at   sim.Time // enqueue instant, for the write-latency histogram
}

// New creates a log device with the given write latency.
func New(s *sim.Sim, latency time.Duration) *Stable {
	return &Stable{sim: s, latency: latency}
}

// Latency returns the configured write latency.
func (st *Stable) Latency() time.Duration { return st.latency }

// Instrument binds the device's obs instruments from the registry (nil
// disables at zero cost): storage.* counters, the enqueue→durable
// storage.write_latency histogram, and the storage.max_queue high-water
// gauge. The instruments are shared across all devices bound to the same
// registry (per-cluster totals).
func (st *Stable) Instrument(reg *obs.Registry) {
	st.mWrites = reg.Counter("storage.writes")
	st.mBytes = reg.Counter("storage.bytes")
	st.mDrops = reg.Counter("storage.drops")
	st.mTornBytes = reg.Counter("storage.torn_bytes")
	st.mLatency = reg.Histogram("storage.write_latency")
	st.gMaxQueue = reg.Gauge("storage.max_queue")
}

// Writes returns the number of completed writes.
func (st *Stable) Writes() int { return st.writes }

// MaxQueue returns the deepest write queue observed.
func (st *Stable) MaxQueue() int { return st.maxQLen }

// Size returns the number of durable bytes.
func (st *Stable) Size() int { return st.size }

// Contents returns a copy of the durable byte image (empty on a mirrored
// device: read the mirror).
func (st *Stable) Contents() []byte {
	if len(st.segs) == 0 {
		return nil
	}
	out := make([]byte, 0, st.size)
	out = append(out, st.segs[0][st.segOff:]...)
	for _, seg := range st.segs[1:] {
		out = append(out, seg...)
	}
	return out
}

// Write persists an entry with no payload bytes and calls done when the
// write is stable — the latency-only interface the E5 baseline uses. A
// zero latency completes on a deferred event (still asynchronous,
// preserving ordering).
func (st *Stable) Write(done func()) { st.Append(nil, done) }

// Append persists data at the end of the durable image and calls done once
// the bytes are stable. Appends are serialized through the single write
// head; a crash (Drop) while this write is in flight leaves only a strict
// prefix of data durable, and done never fires.
func (st *Stable) Append(data []byte, done func()) {
	st.queue = append(st.queue, pending{data: data, done: done, at: st.sim.Now()})
	if len(st.queue) > st.maxQLen {
		st.maxQLen = len(st.queue)
	}
	st.gMaxQueue.Max(int64(len(st.queue)))
	if !st.busy {
		st.startNext()
	}
}

func (st *Stable) startNext() {
	if len(st.queue) == 0 {
		st.busy = false
		st.head = pending{}
		return
	}
	st.busy = true
	st.head = st.queue[0]
	st.queue = st.queue[1:]
	epoch := st.epoch
	st.sim.After(st.latency, func() { st.fallDue(epoch) })
}

// fallDue completes the write under the head once its latency has
// elapsed — unless the owner crashed since it started (epoch moved on),
// or the owner is paused: then the write stays in flight, tearable by a
// crash, until Resume.
func (st *Stable) fallDue(epoch int) {
	if st.epoch != epoch {
		return // the owner crashed while this write was in flight
	}
	if st.held {
		st.due = true
		return
	}
	w := st.head
	st.writes++
	st.mWrites.Inc()
	st.mBytes.Add(int64(len(w.data)))
	st.mLatency.Record(st.sim.Now().Sub(w.at))
	st.persist(w.data)
	st.head = pending{}
	if w.done != nil {
		w.done()
	}
	st.startNext()
}

// Pause stops the write head while the owner is paused (failure status
// bad): a write whose latency elapses meanwhile stays in flight, so an
// amnesia crash before Resume tears it like any in-flight write, and its
// completion — the owner's write-ahead gates, which release outputs such
// as client deliveries — never fires at a paused owner. Writes may still
// be enqueued.
func (st *Stable) Pause() { st.held = true }

// Resume restarts a paused write head: a write that fell due while paused
// completes on the next event.
func (st *Stable) Resume() {
	st.held = false
	if st.due {
		st.due = false
		epoch := st.epoch
		st.sim.Defer(func() { st.fallDue(epoch) })
	}
}

// persist appends bytes to the durable image: the mirror's if one is
// attached, the device's own otherwise.
func (st *Stable) persist(b []byte) {
	st.size += len(b)
	if st.Mirror == nil {
		for len(b) > 0 {
			k := len(st.segs)
			if k == 0 {
				// A small image pays for a small segment: the first
				// doubles from firstSeg up to segSize.
				st.segs = append(st.segs, make([]byte, 0, firstSeg))
				k++
			} else if len(st.segs[k-1]) == segSize {
				st.segs = append(st.segs, make([]byte, 0, segSize))
				k++
			}
			last := st.segs[k-1]
			if len(last) == cap(last) {
				last = append(make([]byte, 0, min(2*cap(last), segSize)), last...)
			}
			n := min(len(b), cap(last)-len(last))
			st.segs[k-1] = append(last, b[:n]...)
			b = b[n:]
		}
		return
	}
	if len(b) > 0 {
		if _, err := st.Mirror.Write(b); err != nil {
			panic(fmt.Sprintf("storage: mirror write: %v", err))
		}
	}
}

// Drop simulates the owner's amnesia crash taking the write path with it:
// the write in flight is torn to a strict prefix of its bytes (TornPrefix
// decides how many; default half), every queued write is silently
// discarded, and no pending done callback ever fires — a wiped processor
// must not observe completions from before its crash. The durable image
// itself survives; a subsequent Append starts a fresh write chain.
func (st *Stable) Drop() {
	st.mDrops.Inc()
	if st.busy && len(st.head.data) > 0 {
		n := len(st.head.data)
		k := n / 2
		if st.TornPrefix != nil {
			k = st.TornPrefix(n)
			if k < 0 {
				k = 0
			}
			if k >= n {
				k = n - 1
			}
		}
		st.mTornBytes.Add(int64(k))
		st.persist(st.head.data[:k])
	}
	st.epoch++
	st.busy = false
	st.due = false
	st.head = pending{}
	st.queue = nil
}

// FlipBit flips one bit of the durable image — the injectable silent-
// corruption fault the recovery layer's checksums must catch. Offsets
// outside the image are ignored (on a mirrored device, all of them).
func (st *Stable) FlipBit(off int, bit uint) {
	if st.Mirror != nil || off < 0 || off >= st.size || bit > 7 {
		return
	}
	abs := st.segOff + off
	st.segs[abs/segSize][abs%segSize] ^= 1 << bit
}

// MirrorTruncator is the extra capability a mirror must provide for a
// device that gets compacted: dropping the first n logical bytes of the
// mirrored image. Offsets are logical (0 = the first byte the log ever
// held at this mirror), matching TruncatePrefix; the mirror tracks how
// much of its own image earlier truncations already removed.
type MirrorTruncator interface {
	io.Writer
	TruncatePrefix(n int) error
}

// Base returns the logical offset of the first retained durable byte:
// 0 until TruncatePrefix advances it. The image — Contents(), or the
// mirror's — holds the logical range [Base, Base+Size).
func (st *Stable) Base() int { return st.base }

// SetBase declares that the (empty) device logically continues an
// existing image of n bytes held elsewhere — the live daemon's device
// starts empty while the WAL file already holds every prior
// incarnation's records. Only valid before any write.
func (st *Stable) SetBase(n int) {
	if st.size > 0 || st.busy || len(st.queue) > 0 {
		panic("storage: SetBase on a non-empty device")
	}
	st.base = n
}

// TruncatePrefix discards the durable image before logical offset n —
// the compaction step once a checkpoint record has made the prefix
// redundant. A mirror must implement MirrorTruncator (panic otherwise:
// silently diverging from the mirror breaks crash recovery). Offsets at
// or below Base are a no-op on the device but still forwarded to the
// mirror, whose image may reach further back (pre-boot incarnations).
func (st *Stable) TruncatePrefix(n int) {
	if n > st.base+st.size {
		panic(fmt.Sprintf("storage: TruncatePrefix(%d) beyond durable end %d", n, st.base+st.size))
	}
	if n > st.base {
		if st.Mirror == nil {
			abs := st.segOff + n - st.base
			drop := abs / segSize
			clear(st.segs[:drop])
			st.segs = st.segs[drop:]
			st.segOff = abs % segSize
		}
		st.size -= n - st.base
		st.base = n
	}
	if st.Mirror != nil {
		mt, ok := st.Mirror.(MirrorTruncator)
		if !ok {
			panic("storage: TruncatePrefix with a mirror that cannot truncate")
		}
		if err := mt.TruncatePrefix(n); err != nil {
			panic(fmt.Sprintf("storage: mirror truncate: %v", err))
		}
	}
}

// TruncateTail discards the durable image from logical offset n on — the
// recovery step that removes a torn tail so the next incarnation's
// records are appended where a replay will actually read them (replay
// stops at the first torn record, so bytes after a tear are dead). Only
// meaningful with no write in flight (post-Drop). The live daemon
// truncates its WAL file before the device exists, so a mirror here is
// unsupported.
func (st *Stable) TruncateTail(n int) {
	if st.busy {
		panic("storage: TruncateTail with a write in flight")
	}
	if n < st.base || n > st.base+st.size {
		panic(fmt.Sprintf("storage: TruncateTail(%d) outside [%d, %d]", n, st.base, st.base+st.size))
	}
	if st.Mirror != nil {
		panic("storage: TruncateTail with a mirror")
	}
	st.size = n - st.base
	abs := st.segOff + st.size
	full, rem := abs/segSize, abs%segSize
	if rem > 0 {
		clear(st.segs[full+1:])
		st.segs = st.segs[:full+1]
		st.segs[full] = st.segs[full][:rem]
	} else {
		clear(st.segs[full:])
		st.segs = st.segs[:full]
	}
}

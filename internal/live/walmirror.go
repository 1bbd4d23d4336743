package live

import (
	"fmt"
	"os"

	"repro/internal/recovery"
)

// walMirror is the real file behind a live node's stable-storage mirror.
// Beyond plain appends it implements storage.MirrorTruncator, so WAL
// compaction can discard the file's prefix: the retained suffix is
// written to a temp file and renamed over the original, leaving either
// the old or the new image after a kill at any instant, never a
// half-rewritten one.
//
// Offsets are the log's logical offsets for this boot (0 = the file's
// first byte at open time); origin tracks how much earlier truncations
// already removed from the front.
type walMirror struct {
	path   string
	f      *os.File
	origin int // logical offset of the file's first byte
	size   int // current file size
	// replay is what openWALMirror's replay of the file found: the state
	// of the retained contents, which the node boots from.
	replay *recovery.Snapshot
}

// openWALMirror opens (creating if absent) the WAL file for mirroring,
// first discarding any torn tail a kill mid-write left behind: replay
// stops at the first torn record, so bytes past the tear are dead — and
// new records must be appended where the next replay will actually read
// them. Returns the retained contents and the mirror positioned to append
// after them, which holds their replay (the file is replayed once per
// boot). An image in an older record format is refused (the error wraps
// recovery.ErrOlderFormat) and the file is left as it was.
func openWALMirror(path string) ([]byte, *walMirror, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, err
	}
	snap := recovery.Replay(data)
	if snap.Refused != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, snap.Refused)
	}
	if snap.TruncatedAt < len(data) {
		data = data[:snap.TruncatedAt]
		if err := os.Truncate(path, int64(snap.TruncatedAt)); err != nil {
			return nil, nil, fmt.Errorf("live: truncate torn WAL tail: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	return data, &walMirror{path: path, f: f, size: len(data), replay: snap}, nil
}

func (m *walMirror) Write(b []byte) (int, error) {
	n, err := m.f.Write(b)
	m.size += n
	return n, err
}

// TruncatePrefix drops the file's bytes before logical offset n
// (storage.MirrorTruncator).
func (m *walMirror) TruncatePrefix(n int) error {
	if n <= m.origin {
		return nil
	}
	if n > m.origin+m.size {
		return fmt.Errorf("live: wal mirror: truncate to %d beyond end %d", n, m.origin+m.size)
	}
	data, err := os.ReadFile(m.path)
	if err != nil {
		return err
	}
	if len(data) != m.size {
		return fmt.Errorf("live: wal mirror: file size %d, tracked %d", len(data), m.size)
	}
	drop := n - m.origin
	tmp := m.path + ".compact"
	tf, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := tf.Write(data[drop:]); err != nil {
		tf.Close()
		return err
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		return err
	}
	if err := tf.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, m.path); err != nil {
		return err
	}
	f, err := os.OpenFile(m.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	m.f.Close()
	m.f = f
	m.origin = n
	m.size -= drop
	return nil
}

func (m *walMirror) Close() error { return m.f.Close() }

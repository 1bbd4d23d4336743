package vsmachine

import (
	"encoding/binary"
	"fmt"

	"repro/internal/types"
)

// MsgFingerprinter is implemented by message payloads that can append a
// canonical binary encoding of themselves. Payload types sent by pointer
// (summaries) must encode content, not identity: the explorer's visited
// set must treat structurally equal states as equal even when they were
// reached through distinct message allocations.
type MsgFingerprinter interface {
	AppendFingerprint([]byte) []byte
}

// appendMsgFingerprint appends one message with a leading type tag so a
// string payload can never alias a structured one.
func appendMsgFingerprint(buf []byte, m Msg) []byte {
	switch t := m.(type) {
	case MsgFingerprinter:
		buf = append(buf, 0x01)
		return t.AppendFingerprint(buf)
	case string:
		buf = append(buf, 0x02)
		return types.AppendFingerprintString(buf, t)
	default:
		// Tests drive the machine with small comparable payloads (ints);
		// %v renders those canonically.
		buf = append(buf, 0x03)
		return types.AppendFingerprintString(buf, fmt.Sprintf("%v", m))
	}
}

// AppendFingerprint appends a canonical binary encoding of the machine
// state, the explorer's visited-set key. Every section is count-prefixed
// and walked in ascending order, so the encoding is a pure function of the
// state: the created views, every processor's current view, the nonempty
// queues, the nonempty pending sequences, then the next and next-safe
// indices that are not at their default value 1 (a default index and no
// index are the same abstract state).
func (m *Machine) AppendFingerprint(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(m.Created)))
	queues := 0
	for _, c := range m.Created {
		buf = c.View.AppendFingerprint(buf)
		if len(c.Queue) > 0 {
			queues++
		}
	}
	for _, p := range m.procs.Members() {
		buf = m.CurrentViewID[p].AppendFingerprint(buf)
	}
	buf = binary.AppendUvarint(buf, uint64(queues))
	for _, c := range m.Created {
		if len(c.Queue) == 0 {
			continue
		}
		buf = c.ID.AppendFingerprint(buf)
		buf = binary.AppendUvarint(buf, uint64(len(c.Queue)))
		for _, e := range c.Queue {
			buf = appendMsgFingerprint(buf, e.M)
			buf = binary.AppendVarint(buf, int64(e.P))
		}
	}
	n := 0
	for _, s := range m.slots {
		if len(s.pending) > 0 {
			n++
		}
	}
	buf = binary.AppendUvarint(buf, uint64(n))
	for _, s := range m.slots {
		if len(s.pending) == 0 {
			continue
		}
		buf = binary.AppendVarint(buf, int64(s.P))
		buf = s.G.AppendFingerprint(buf)
		buf = binary.AppendUvarint(buf, uint64(len(s.pending)))
		for _, msg := range s.pending {
			buf = appendMsgFingerprint(buf, msg)
		}
	}
	buf = appendIndex(buf, m.slots, func(s *slot) int32 { return s.next })
	return appendIndex(buf, m.slots, func(s *slot) int32 { return s.nextSafe })
}

// appendIndex appends the section of one per-(p, g) index, read from the
// slots by idx, that lists the pairs where it is not at its default.
func appendIndex(buf []byte, slots []slot, idx func(*slot) int32) []byte {
	n := 0
	for i := range slots {
		if idx(&slots[i]) != 0 {
			n++
		}
	}
	buf = binary.AppendUvarint(buf, uint64(n))
	for i := range slots {
		s := &slots[i]
		if idx(s) == 0 {
			continue
		}
		buf = binary.AppendVarint(buf, int64(s.P))
		buf = s.G.AppendFingerprint(buf)
		buf = binary.AppendVarint(buf, int64(idx(s))+1)
	}
	return buf
}

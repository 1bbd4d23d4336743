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
// and maps are walked in sorted key order, so the encoding is a pure
// function of the state. next/next-safe entries at their default value 1 are omitted
// (an absent key and an explicit 1 are the same abstract state).
func (m *Machine) AppendFingerprint(buf []byte) []byte {
	var idBuf [8]types.ViewID
	var pgBuf [16]pg
	created := sortedKeys(idBuf[:0], m.Created, types.ViewID.Cmp)
	buf = binary.AppendUvarint(buf, uint64(len(created)))
	for _, id := range created {
		buf = m.Created[id].AppendFingerprint(buf)
	}
	for _, p := range m.procs.Members() {
		buf = m.CurrentViewID[p].AppendFingerprint(buf)
	}
	queues := sortedKeys(idBuf[:0], m.Queue, types.ViewID.Cmp)
	buf = binary.AppendUvarint(buf, uint64(len(queues)))
	for _, g := range queues {
		buf = g.AppendFingerprint(buf)
		q := m.Queue[g]
		buf = binary.AppendUvarint(buf, uint64(len(q)))
		for _, e := range q {
			buf = appendMsgFingerprint(buf, e.M)
			buf = binary.AppendVarint(buf, int64(e.P))
		}
	}
	pgs := sortedKeys(pgBuf[:0], m.pending, cmpPG)
	nonEmpty := 0
	for _, k := range pgs {
		if len(m.pending[k]) > 0 {
			nonEmpty++
		}
	}
	buf = binary.AppendUvarint(buf, uint64(nonEmpty))
	for _, k := range pgs {
		pend := m.pending[k]
		if len(pend) == 0 {
			continue
		}
		buf = binary.AppendVarint(buf, int64(k.P))
		buf = k.G.AppendFingerprint(buf)
		buf = binary.AppendUvarint(buf, uint64(len(pend)))
		for _, msg := range pend {
			buf = appendMsgFingerprint(buf, msg)
		}
	}
	for _, idx := range []map[pg]int{m.next, m.nextSafe} {
		ks := sortedKeys(pgBuf[:0], idx, cmpPG)
		nonDefault := 0
		for _, k := range ks {
			if idx[k] != 1 {
				nonDefault++
			}
		}
		buf = binary.AppendUvarint(buf, uint64(nonDefault))
		for _, k := range ks {
			if idx[k] == 1 {
				continue
			}
			buf = binary.AppendVarint(buf, int64(k.P))
			buf = k.G.AppendFingerprint(buf)
			buf = binary.AppendVarint(buf, int64(idx[k]))
		}
	}
	return buf
}

package recovery

import (
	"encoding/binary"

	"repro/internal/codec"
)

// EstablishRecord is one establishment record of a WAL image: the offset
// of the frame holding it, its payload size, its keep and the length of
// its suffix.
type EstablishRecord struct{ Off, Size, Keep, Suffix int }

// eachRecord calls fn for every record of a clean WAL image, loose and
// batched alike, with the offset of the frame holding it, its payload and
// the bytes of its length prefix inside a batch (0 for a loose record).
func eachRecord(disk []byte, fn func(off int, p []byte, prefix int)) {
	for off := 0; off+frameHeader <= len(disk); {
		n := int(binary.LittleEndian.Uint32(disk[off:]))
		p := disk[off+frameHeader : off+frameHeader+n]
		if p[0] == recBatchVar {
			for body := p[1:]; len(body) > 0; {
				ln, k := binary.Uvarint(body)
				fn(off, body[k:k+int(ln)], k)
				body = body[k+int(ln):]
			}
		} else {
			fn(off, p, 0)
		}
		off += frameHeader + n
	}
}

// EstablishRecords lists the establishment records of a clean WAL image
// in log order, loose and batched alike.
func EstablishRecords(disk []byte) []EstablishRecord {
	var out []EstablishRecord
	eachRecord(disk, func(off int, p []byte, _ int) {
		if p[0] != recEstablishVar {
			return
		}
		r := codec.NewReader(p[1:])
		keep := int(r.Uvarint())
		n := int(r.Uvarint())
		out = append(out, EstablishRecord{Off: off, Size: len(p), Keep: keep, Suffix: n})
	})
	return out
}

// RecordStat is what one record kind costs in WAL images: its count and
// its bytes, batch length prefixes included.
type RecordStat struct{ Count, Bytes int }

// recordNames names each record tag for RecordStats.
var recordNames = map[byte]string{
	recView: "View", recRecovered: "Recovered", recCheckpoint: "Checkpoint",
	recEstablishVar: "Establish", recOrderAppendVar: "OrderAppend", recBcastVar: "Bcast",
	recLabelVar: "Label", recDeliverVar: "Deliver",
}

// FramingStat is the RecordStats key of frame headers and batch tags.
const FramingStat = "framing"

// RecordStats adds each record kind's cost in a clean WAL image to stats,
// keyed by kind name; frame headers and batch tags count as FramingStat.
func RecordStats(disk []byte, stats map[string]RecordStat) {
	records := 0
	eachRecord(disk, func(_ int, p []byte, prefix int) {
		st := stats[recordNames[p[0]]]
		st.Count++
		st.Bytes += prefix + len(p)
		stats[recordNames[p[0]]] = st
		records += prefix + len(p)
	})
	st := stats[FramingStat]
	st.Bytes += len(disk) - records
	stats[FramingStat] = st
}

package recovery

import (
	"encoding/binary"

	"repro/internal/codec"
)

// EstablishRecord is one establishment record of a WAL image: the offset
// of the frame holding it, its payload size, its keep and the length of
// its suffix (keep 0 and the whole order for the older recEstablish tag).
type EstablishRecord struct{ Off, Size, Keep, Suffix int }

// EstablishRecords lists the establishment records of a clean WAL image
// in log order, loose and batched alike.
func EstablishRecords(disk []byte) []EstablishRecord {
	var out []EstablishRecord
	add := func(off int, p []byte) {
		if p[0] != recEstablish && p[0] != recEstablishSuffix {
			return
		}
		r := codec.NewReader(p[1:])
		keep := 0
		if p[0] == recEstablishSuffix {
			keep = int(r.U32())
		}
		out = append(out, EstablishRecord{Off: off, Size: len(p), Keep: keep, Suffix: int(r.U32())})
	}
	for off := 0; off+frameHeader <= len(disk); {
		n := int(binary.LittleEndian.Uint32(disk[off:]))
		p := disk[off+frameHeader : off+frameHeader+n]
		if p[0] != recBatch {
			add(off, p)
		} else {
			for body := p[1:]; len(body) > 0; {
				ln := int(binary.LittleEndian.Uint32(body))
				add(off, body[4:4+ln])
				body = body[4+ln:]
			}
		}
		off += frameHeader + n
	}
	return out
}

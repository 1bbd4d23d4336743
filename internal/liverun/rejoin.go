package liverun

import (
	"fmt"
	"os"

	"repro/internal/live"
	"repro/internal/props"
	"repro/internal/recovery"
)

// CheckRejoinWAL verifies one node's traced deliveries against its final
// WAL file — the live analogue of props.CheckRejoinSafety, with the real
// file standing in for the simulated device. The write-ahead discipline
// makes the WAL the authority: every delivery is durable before its trace
// line is written, so the node's traced brcv stream (across all
// incarnations, in boot order) must embed order-preservingly into the
// replayed Delivered prefix:
//
//   - within one incarnation's trace, brcvs match consecutive Delivered
//     records exactly (position, origin, per-origin index, value) — a
//     skip, rewind, or re-delivery after a restart shows up here;
//   - at an incarnation boundary the match may skip forward: deliveries
//     durable but untraced (SIGKILL between the WAL write and the trace
//     write, or a torn final trace line) leave a gap the next
//     incarnation's trace resumes after;
//   - a trailing WAL gap is fine — the last records before the final
//     stop may never have been traced.
//
// Works identically with compaction on: a checkpoint record encodes the
// full order and delivered count, so Replay reconstructs the complete
// Delivered history even after the log's prefix is discarded.
func CheckRejoinWAL(walPath string, traceFiles []string) error {
	data, err := os.ReadFile(walPath)
	if err != nil {
		return fmt.Errorf("liverun: rejoin: %w", err)
	}
	snap := recovery.Replay(data)
	delivered := snap.Delivered

	match := func(d recovery.DeliveredRecord, e props.Event) bool {
		return d.From == e.From && d.FromSeq == e.ValueSeq && d.Value == e.Value
	}

	cursor := 0
	for fi, f := range traceFiles {
		lg, err := live.ReadTraceFiles(f)
		if err != nil {
			return fmt.Errorf("liverun: rejoin: %w", err)
		}
		// The first incarnation has no predecessor whose kill could have
		// swallowed trace lines: its first brcv must be WAL position 1.
		atBoundary := fi > 0
		for _, e := range lg.Events {
			if e.Kind != props.TOBrcv {
				continue
			}
			if atBoundary {
				// Scan forward over durable-but-untraced deliveries the
				// previous incarnation's kill swallowed. FromSeq is unique
				// per origin, so the first match is the only one.
				j := cursor
				for j < len(delivered) && !match(delivered[j], e) {
					j++
				}
				if j == len(delivered) {
					return fmt.Errorf(
						"liverun: rejoin: %s: brcv %q from %v#%d has no WAL record at or after position %d — re-delivery or rewind across restart",
						f, e.Value, e.From, e.ValueSeq, cursor+1)
				}
				cursor = j
				atBoundary = false
			} else if cursor >= len(delivered) || !match(delivered[cursor], e) {
				got := "end of WAL"
				if cursor < len(delivered) {
					d := delivered[cursor]
					got = fmt.Sprintf("%q from %v#%d", d.Value, d.From, d.FromSeq)
				}
				return fmt.Errorf(
					"liverun: rejoin: %s: brcv %q from %v#%d does not match WAL position %d (%s) — delivery stream diverged from the durable order",
					f, e.Value, e.From, e.ValueSeq, cursor+1, got)
			}
			cursor++
		}
	}
	return nil
}

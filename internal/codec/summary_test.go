package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/types"
	"repro/internal/vstoto"
)

// randomCon draws a content relation over a few views and origins: per
// (view, origin) nothing, a dense prefix or a holey set of seqnos.
func randomCon(rng *rand.Rand) map[types.Label]types.Value {
	con := map[types.Label]types.Value{}
	for e := int64(1); e <= 3; e++ {
		for o := types.ProcID(0); o < 4; o++ {
			id, k := types.ViewID{Epoch: e, Proc: o % 2}, rng.Intn(80)
			switch rng.Intn(3) {
			case 0:
			case 1:
				for s := 1; s <= k; s++ {
					if rng.Intn(3) == 0 {
						con[types.Label{ID: id, Seqno: s, Origin: o}] = types.Value(fmt.Sprintf("h%d.%d.%d", e, s, o))
					}
				}
			default:
				for s := 1; s <= k; s++ {
					con[types.Label{ID: id, Seqno: s, Origin: o}] = types.Value(fmt.Sprintf("d%d.%d.%d", e, s, o))
				}
			}
		}
	}
	return con
}

// TestSummaryRunsRoundTrip: literal contents, holey ones included, and
// the run form a processor sends survive the wire as the same relation:
// the decoded summary renders and fingerprints byte for byte as the one
// encoded, and holds the sorted runs of its content.
func TestSummaryRunsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	procs := types.RangeProcSet(3)
	for i := 0; i < 300; i++ {
		con := randomCon(rng)
		ord := []types.Label{{ID: types.G0(), Seqno: 1 + rng.Intn(3), Origin: 1}}
		in := &vstoto.Summary{Con: con, Ord: ord, Next: 1 + rng.Intn(3), High: types.ViewID{Epoch: rng.Int63n(3)}}
		if i%2 == 1 { // the form SummaryMessage builds
			p := vstoto.NewProc(0, types.Majorities{Universe: procs}, procs)
			p.MergeContent(vstoto.RunsOf(con))
			p.Order = ord
			in = p.SummaryMessage()
		}
		b, err := Encode(in)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := Decode(b)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		out := dec.(*vstoto.Summary)
		if out.String() != in.String() {
			t.Fatalf("case %d: decoded\n%s\nencoded\n%s", i, out, in)
		}
		if !bytes.Equal(out.AppendFingerprint(nil), in.AppendFingerprint(nil)) {
			t.Fatalf("case %d: fingerprints differ", i)
		}
		if want := vstoto.RunsOf(con); !reflect.DeepEqual(out.Runs, want) && len(want) > 0 {
			t.Fatalf("case %d: runs %v, want %v", i, out.Runs, want)
		}
		if b2, _ := Encode(out); !bytes.Equal(b, b2) {
			t.Fatalf("case %d: re-encoding differs", i)
		}
	}
}

// malformedSummaries returns encodings of summaries whose runs no summary
// has, each named by its defect.
func malformedSummaries() map[string][]byte {
	g := types.G0()
	run := func(id types.ViewID, origin types.ProcID, first int, vals ...types.Value) vstoto.ContentRun {
		return vstoto.ContentRun{ID: id, Origin: origin, First: first, Vals: vals}
	}
	enc := func(runs ...vstoto.ContentRun) []byte {
		b, err := Encode(&vstoto.Summary{Runs: runs, Next: 1})
		if err != nil {
			panic(err)
		}
		return b
	}
	out := map[string][]byte{
		"overlapping":     enc(run(g, 1, 1, "a", "b"), run(g, 1, 2, "b")),
		"touching":        enc(run(g, 1, 1, "a"), run(g, 1, 2, "b")),
		"seqno 0":         enc(run(g, 1, 0, "a")),
		"negative seqno":  enc(run(g, 1, -4, "a")),
		"unsorted origin": enc(run(g, 2, 1, "a"), run(g, 1, 1, "b")),
		"unsorted view":   enc(run(types.ViewID{Epoch: 2}, 1, 1, "a"), run(g, 1, 1, "b")),
		"unsorted first":  enc(run(g, 1, 5, "a"), run(g, 1, 1, "b")),
		"empty run":       enc(run(g, 1, 1)),
		"past max seqno":  enc(run(g, 1, math.MaxInt32, "a", "b")),
	}
	// k beyond the buffer: the count field of a one-value run, after the
	// tag, the run count, the view, the origin and the first seqno.
	huge := enc(run(g, 1, 1, "a"))
	binary.LittleEndian.PutUint32(huge[1+4+12+4+4:], math.MaxUint32/2)
	out["k beyond the buffer"] = huge
	return out
}

// TestDecodeRejectsMalformedRuns: each malformed class is an error
// wrapping ErrMalformed, not a summary and not a panic.
func TestDecodeRejectsMalformedRuns(t *testing.T) {
	for name, b := range malformedSummaries() {
		if out, err := Decode(b); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: decoded to %v, err %v", name, out, err)
		}
	}
}

package vsimpl

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/net"
	"repro/internal/props"
	"repro/internal/sim"
	"repro/internal/types"
)

// gpsndID submits a message at p whose payload is the MsgID it will get,
// so a token entry can be rebuilt from the trace alone.
func (c *cluster) gpsndID(p types.ProcID) {
	n := c.nodes[p]
	n.Gpsnd(check.MsgID{Sender: p, Seq: n.sendSeq + 1})
}

// viewSeqs rebuilds, from the trace, every node's whole delivered sequence
// in its current view — what seq held before it was trimmed.
type viewSeqs struct {
	log    *props.Log
	cursor int
	seqs   map[types.ProcID][]TokenMsg
}

func (v *viewSeqs) of(p types.ProcID) []TokenMsg {
	for ; v.cursor < len(v.log.Events); v.cursor++ {
		e := v.log.Events[v.cursor]
		switch e.Kind {
		case props.VSNewview:
			v.seqs[e.P] = nil
		case props.VSGprcv:
			v.seqs[e.P] = append(v.seqs[e.P], TokenMsg{ID: e.Msg, From: e.From, Payload: e.Msg})
		}
	}
	return v.seqs[p]
}

// TestLaunchTokenEqualsCompactedCopy: the suffix launch builds exactly the
// token the old construction did — copy the view's whole sequence, then
// compactToken — in Base, Msgs and Delivered, at every launch under
// jitter, across a partition and a heal.
// The subtest is named for the demand-driven ("eager") launch rule,
// the ring's only one.
func TestLaunchTokenEqualsCompactedCopy(t *testing.T) {
	t.Run("eager", testLaunchTokenEqualsCompactedCopy)
}

func testLaunchTokenEqualsCompactedCopy(t *testing.T) {
	const n = 5
	delta := time.Millisecond
	cfg := DefaultConfig(delta, n)
	c := buildCluster(83, n, n, net.Config{Delta: delta, Jitter: true}, cfg)
	full := &viewSeqs{log: c.log, seqs: make(map[types.ProcID][]TokenMsg)}
	launches, lagging, views := 0, 0, make(map[types.ViewID]bool)
	for _, p := range c.procs.Members() {
		node := c.nodes[p]
		node.onLaunch = func(tok *TokenPkt) {
			ref := &TokenPkt{
				View:      node.cur,
				Msgs:      append([]TokenMsg(nil), full.of(node.id)...),
				Delivered: copyCounts(node.counts),
			}
			node.compactToken(ref)
			if tok.Base != ref.Base || !reflect.DeepEqual(tok.Msgs, ref.Msgs) ||
				!reflect.DeepEqual(tok.Delivered, ref.Delivered) {
				t.Fatalf("%v launch %d at %v in %v: got base %d, %d msgs, %v; reference base %d, %d msgs, %v",
					node.id, node.launchNo, c.sim.Now(), node.cur.ID,
					tok.Base, len(tok.Msgs), tok.Delivered, ref.Base, len(ref.Msgs), ref.Delivered)
			}
			launches++
			if node.seqBase < tok.Base {
				lagging++ // a launch from seqBase would differ here
			}
			views[node.cur.ID] = true
		}
	}
	rng := rand.New(rand.NewSource(5))
	var load func()
	load = func() {
		if c.sim.Now() > sim.Time(700*time.Millisecond) {
			return
		}
		c.sim.After(time.Duration(1+rng.Intn(3))*time.Millisecond, load)
		c.gpsndID(types.ProcID(rng.Intn(n)))
	}
	c.sim.After(time.Millisecond, load)
	c.sim.After(200*time.Millisecond, func() {
		c.oracle.Partition(c.procs, types.NewProcSet(0, 1, 2), types.NewProcSet(3, 4))
	})
	c.sim.After(450*time.Millisecond, func() { c.oracle.Heal(c.procs) })
	if err := c.sim.Run(sim.Time(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	c.conformance(t, c.procs)
	if launches < 50 || lagging == 0 || len(views) < 3 {
		t.Fatalf("scenario too weak: %d launches, %d with seqBase below Base, %d views",
			launches, lagging, len(views))
	}
	t.Logf("%d launches checked (%d with seqBase < Base) over %d views", launches, lagging, len(views))
}

// TestSeqKeepsOnlyUnsafeSuffix: through 2 000 values in one view, no node
// holds more than twice its unsafe suffix (plus one) of the view's
// sequence; under NoTokenCompaction (the E11 ablation) nothing is dropped.
func TestSeqKeepsOnlyUnsafeSuffix(t *testing.T) {
	const values = 2000
	for _, noCompact := range []bool{false, true} {
		name := "trimmed"
		if noCompact {
			name = "NoTokenCompaction"
		}
		t.Run(name, func(t *testing.T) {
			const n = 5
			delta := time.Millisecond
			cfg := DefaultConfig(delta, n)
			cfg.NoTokenCompaction = noCompact
			c := buildCluster(89, n, n, net.Config{Delta: delta, Jitter: true}, cfg)
			sent, maxUnsafe := 0, 0
			var load func()
			load = func() {
				if sent == values {
					return
				}
				c.sim.After(250*time.Microsecond, load)
				c.gpsndID(types.ProcID(sent % n))
				sent++
			}
			c.sim.After(time.Millisecond, load)
			var inspect func()
			inspect = func() {
				for _, p := range c.procs.Members() {
					node := c.nodes[p]
					unsafe := node.seqLen() - node.safeSent
					maxUnsafe = max(maxUnsafe, unsafe)
					if noCompact {
						if node.seqBase != 0 {
							t.Fatalf("%v dropped %d entries under NoTokenCompaction", p, node.seqBase)
						}
					} else if len(node.seq) > 2*(unsafe+1) {
						t.Fatalf("%v at %v holds %d entries for an unsafe suffix of %d",
							p, c.sim.Now(), len(node.seq), unsafe)
					}
				}
				c.sim.After(100*time.Microsecond, inspect)
			}
			c.sim.After(0, inspect)
			if err := c.sim.Run(sim.Time(time.Second)); err != nil {
				t.Fatal(err)
			}
			c.conformance(t, c.procs)
			for _, p := range c.procs.Members() {
				node := c.nodes[p]
				if v, _ := node.View(); v.ID != types.G0() {
					t.Fatalf("%v left the initial view: %v", p, v.ID)
				}
				if st := node.Stats(); st.Delivered != values || st.SafeEmitted != values {
					t.Fatalf("%v delivered %d and emitted safe for %d of %d values", p, st.Delivered, st.SafeEmitted, values)
				}
				if noCompact && len(node.seq) != values {
					t.Fatalf("%v holds %d of the view's %d entries under NoTokenCompaction", p, len(node.seq), values)
				}
			}
			if maxUnsafe < 2 {
				t.Fatalf("unsafe suffix never exceeded %d: the bound was not exercised", maxUnsafe)
			}
		})
	}
}

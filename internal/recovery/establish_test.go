package recovery_test

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/recovery"
	"repro/internal/stack"
	"repro/internal/types"
)

// TestHealEstablishmentIsSuffixSized pins what a view change costs the
// log: after 2 000 values and one 3|2 partition with traffic on both
// sides, each node's heal establishment holds a bounded header plus one
// encoded label and value per label the exchange changed — not the whole
// order.
func TestHealEstablishmentIsSuffixSized(t *testing.T) {
	const (
		n      = 5
		values = 2000
		// header bounds an establishment's payload without its suffix:
		// tag, keep and suffix-length uvarints, nextconfirm, highprimary.
		header = 1 + 3 + 3 + 3 + 4
		// labelBytes bounds one suffix entry here: a varint label (view,
		// seqno below 2^13, origin) and a value of at most 5 bytes with
		// its length.
		labelBytes = 6 + 6
	)
	c := stack.NewCluster(stack.Options{Seed: 9, N: n, Delta: time.Millisecond, StorageLatency: time.Millisecond / 4})
	for i := 0; i < values; i++ {
		v := types.Value(fmt.Sprintf("v%d", i))
		p := types.ProcID(i % n)
		c.Sim.After(time.Duration(10_000+500*i)*time.Microsecond, func() { c.Bcast(p, v) })
	}
	settle := func(want int) {
		t.Helper()
		for deadline := c.Sim.Now().Add(10 * time.Second); ; {
			done := true
			for _, p := range c.Procs.Members() {
				done = done && c.Node(p).DeliveredCount() == want
			}
			if done {
				return
			}
			if c.Sim.Now() > deadline {
				t.Fatalf("%d values not delivered everywhere by %v", want, c.Sim.Now())
			}
			if err := c.Sim.RunFor(10 * time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
	}
	settle(values)

	c.Oracle.Partition(c.Procs, types.NewProcSet(0, 1, 2), types.NewProcSet(3, 4))
	if err := c.Sim.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for i, p := range []types.ProcID{0, 1, 3, 4} {
		c.Bcast(p, types.Value(fmt.Sprintf("cut%d", i)))
	}
	if err := c.Sim.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	before := make(map[types.ProcID][]types.Label)
	mark := make(map[types.ProcID]int)
	for _, p := range c.Procs.Members() {
		node := c.Node(p)
		before[p] = slices.Clone(node.Proc().Order)
		mark[p] = node.WAL().EndOffset()
		if st := node.WAL().Storage(); mark[p] != st.Size() {
			t.Fatalf("node %v: log not idle before the heal", p)
		}
	}
	c.Oracle.Heal(c.Procs)
	settle(values + 4)

	for _, p := range c.Procs.Members() {
		node := c.Node(p)
		after := node.Proc().Order
		keep := 0
		for keep < len(before[p]) && keep < len(after) && before[p][keep] == after[keep] {
			keep++
		}
		changed := len(after) - keep
		var heal []recovery.EstablishRecord
		for _, r := range recovery.EstablishRecords(node.WAL().Storage().Contents()) {
			if r.Off >= mark[p] {
				heal = append(heal, r)
			}
		}
		if len(heal) == 0 {
			t.Fatalf("node %v wrote no establishment at the heal", p)
		}
		for _, r := range heal {
			if r.Size > header+labelBytes*changed {
				t.Errorf("node %v: heal establishment is %d B (keep %d, suffix %d); %d labels of %d changed, bound %d B",
					p, r.Size, r.Keep, r.Suffix, changed, len(after), header+labelBytes*changed)
			}
		}
		t.Logf("node %v: %d heal establishment(s), last %+v; %d of %d labels changed", p, len(heal), heal[len(heal)-1], changed, len(after))
	}
}

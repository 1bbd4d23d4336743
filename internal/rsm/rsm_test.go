package rsm

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/types"
)

func newMemory(seed int64, n int) (*Memory, *stack.Cluster) {
	c := stack.NewCluster(stack.Options{Seed: seed, N: n, Delta: time.Millisecond})
	return New(c), c
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := []Op{
		{Kind: "w", Key: "k", Val: "v", Nonce: 1},
		{Kind: "r", Key: "k", Nonce: 2},
		{Kind: "w", Key: "weird|key:with:colons", Val: "val|ue", Nonce: 39},
		{Kind: "w", Key: "", Val: "", Nonce: 0},
		{Kind: "w", Key: "12:34", Val: "56|78", Nonce: 7},
	}
	for _, op := range cases {
		got, err := DecodeOp(op.Encode())
		if err != nil {
			t.Fatalf("DecodeOp(%q): %v", op.Encode(), err)
		}
		if got != op {
			t.Errorf("round trip: got %+v, want %+v", got, op)
		}
	}
}

func TestDecodeOpMalformed(t *testing.T) {
	// A value without the wire tag is malformed, however it is shaped.
	for _, raw := range []string{"", "w", "w|1", "w|x|1:k", "w|1|zz:k", "w|1|99:k", "w|1|1:kv"} {
		if _, err := DecodeOp(types.Value(raw)); err == nil {
			t.Errorf("DecodeOp(%q) succeeded; want error", raw)
		}
	}
}

// TestWriteVisibleEverywhere: a write becomes visible at every replica.
func TestWriteVisibleEverywhere(t *testing.T) {
	m, c := newMemory(21, 3)
	acked := false
	c.Sim.After(10*time.Millisecond, func() {
		m.Write(0, "x", "1", func() { acked = true })
	})
	if err := m.WaitSettle(sim.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	if !acked {
		t.Fatal("write never acknowledged")
	}
	for _, p := range c.Procs.Members() {
		if got := m.Read(p, "x"); got != "1" {
			t.Errorf("replica %v reads %q, want \"1\"", p, got)
		}
	}
	if err := m.CheckCoherence(); err != nil {
		t.Error(err)
	}
}

// TestConcurrentWritersConverge: interleaved writers at different nodes
// leave every replica with identical state — the last writer in the total
// order wins everywhere.
func TestConcurrentWritersConverge(t *testing.T) {
	m, c := newMemory(23, 4)
	for i := 0; i < 10; i++ {
		i := i
		p := types.ProcID(i % 4)
		c.Sim.After(time.Duration(10+i)*time.Millisecond, func() {
			m.Write(p, "cell", fmt.Sprintf("w%d", i), nil)
		})
	}
	if err := m.WaitSettle(sim.Time(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
	ref := m.Read(0, "cell")
	if ref == "" {
		t.Fatal("no write applied")
	}
	for _, p := range c.Procs.Members() {
		if got := m.Read(p, "cell"); got != ref {
			t.Errorf("replica %v reads %q, want %q", p, got, ref)
		}
	}
}

// TestAtomicRead: a broadcast read observes the value at its place in the
// total order.
func TestAtomicRead(t *testing.T) {
	m, c := newMemory(25, 3)
	var observed string
	gotValue := false
	c.Sim.After(10*time.Millisecond, func() { m.Write(1, "k", "before", nil) })
	c.Sim.After(200*time.Millisecond, func() {
		m.ReadAtomic(2, "k", func(v string) { observed = v; gotValue = true })
	})
	if err := m.WaitSettle(sim.Time(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if !gotValue {
		t.Fatal("atomic read never completed")
	}
	if observed != "before" {
		t.Errorf("atomic read observed %q, want \"before\"", observed)
	}
}

// TestPartitionedMemory: during a partition the minority replica serves
// stale (but sequentially consistent) reads and cannot ack writes; after
// healing everything converges.
func TestPartitionedMemory(t *testing.T) {
	m, c := newMemory(27, 5)
	majority := types.NewProcSet(0, 1, 2)
	minority := types.NewProcSet(3, 4)

	c.Sim.After(20*time.Millisecond, func() { c.Oracle.Partition(c.Procs, majority, minority) })
	minorityAcked := false
	c.Sim.After(150*time.Millisecond, func() {
		m.Write(0, "k", "maj", nil)
		m.Write(3, "k", "min", func() { minorityAcked = true })
	})
	var staleRead string
	c.Sim.After(800*time.Millisecond, func() {
		staleRead = m.Read(3, "k")
		if minorityAcked {
			t.Error("minority write acked during partition")
		}
	})
	c.Sim.After(900*time.Millisecond, func() { c.Oracle.Heal(c.Procs) })
	if err := m.WaitSettle(sim.Time(4 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if staleRead != "" {
		t.Errorf("minority read %q during partition; want stale empty value", staleRead)
	}
	if err := m.CheckCoherence(); err != nil {
		t.Fatal(err)
	}
	if !minorityAcked {
		t.Error("minority write never acked after heal")
	}
	ref := m.Read(0, "k")
	for _, p := range c.Procs.Members() {
		if got := m.Read(p, "k"); got != ref {
			t.Errorf("replica %v reads %q, want %q after heal", p, got, ref)
		}
	}
}

// TestRejectedSubmissionLeavesNoWaiter: a submission the stack rejects
// (here: the backlog bound, on the minority side of a partition, where
// nothing drains) is reported to the client and leaves no waiter behind;
// the accepted one before it still acks after the heal.
func TestRejectedSubmissionLeavesNoWaiter(t *testing.T) {
	c := stack.NewCluster(stack.Options{Seed: 29, N: 5, Delta: time.Millisecond, MaxPendingBcasts: 1})
	m := New(c)
	c.Sim.After(20*time.Millisecond, func() {
		c.Oracle.Partition(c.Procs, types.NewProcSet(0, 1, 2), types.NewProcSet(3, 4))
	})
	firstAcked, secondAcked, readAcked := false, false, false
	c.Sim.After(150*time.Millisecond, func() {
		if !m.Write(3, "k", "first", func() { firstAcked = true }) {
			t.Error("first write rejected with an empty backlog")
		}
		before := len(m.waiters)
		if m.Write(3, "k", "second", func() { secondAcked = true }) {
			t.Error("second write accepted past MaxPendingBcasts")
		}
		if m.ReadAtomic(3, "k", func(string) { readAcked = true }) {
			t.Error("atomic read accepted past MaxPendingBcasts")
		}
		if len(m.waiters) != before {
			t.Errorf("rejected submissions left waiters: %d, want %d", len(m.waiters), before)
		}
	})
	c.Sim.After(900*time.Millisecond, func() { c.Oracle.Heal(c.Procs) })
	if err := m.WaitSettle(sim.Time(4 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if !firstAcked {
		t.Error("accepted write never acked after the heal")
	}
	if secondAcked || readAcked {
		t.Error("a rejected submission was acked")
	}
	if len(m.waiters) != 0 {
		t.Errorf("%d waiters left after everything accepted was applied", len(m.waiters))
	}
	if got := m.Read(0, "k"); got != "first" {
		t.Errorf("k = %q, want \"first\"", got)
	}
}

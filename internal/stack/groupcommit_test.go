package stack

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/failures"
	"repro/internal/props"
	"repro/internal/sim"
	"repro/internal/types"
)

// burstOpts is a traced cluster on a λ-latency device.
func burstOpts(seed int64, n int, lambda time.Duration) Options {
	return Options{Seed: seed, N: n, Delta: time.Millisecond, StorageLatency: lambda, Log: &props.Log{}}
}

// TestGroupCommitDeliversSubmissionOrder: a single-origin burst on a slow
// device, with group commit coalescing the records queued behind each
// write and the delivery pipeline keeping many in flight, must deliver
// exactly v0 … v(k-1), in submission order, at every node. TO is FIFO per
// origin, so with one submitter the spec pins the whole order.
func TestGroupCommitDeliversSubmissionOrder(t *testing.T) {
	const want, n = 15, 3
	c := NewCluster(burstOpts(7, n, 2*time.Millisecond))
	c.Sim.After(10*time.Millisecond, func() {
		for i := 0; i < want; i++ {
			c.Bcast(0, types.Value(fmt.Sprintf("v%d", i)))
		}
	})
	if err := c.Sim.Run(sim.Time(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	toConformance(t, c.Log)
	for p := types.ProcID(0); p < n; p++ {
		got := c.Deliveries(p)
		if len(got) != want {
			t.Fatalf("node %v delivered %d values, want %d", p, len(got), want)
		}
		for i, d := range got {
			if v := types.Value(fmt.Sprintf("v%d", i)); d.From != 0 || d.Value != v {
				t.Fatalf("node %v delivery %d is %q from %v, want %q from 0", p, i, d.Value, d.From, v)
			}
		}
	}
}

// TestDeprecatedDataPathFieldsIgnored: the benchmark's simulated cluster
// spells out GroupCommit, DeliverPipeline and EagerTokenRounds; every
// other caller leaves them zero. At the benchmark's settings (jitter, the
// wire codec, λ = δ/4) both spellings must run the same protocol: the same
// deliveries at the same instants, the same WAL images and the same trace,
// through load from every origin, a partition and its heal.
func TestDeprecatedDataPathFieldsIgnored(t *testing.T) {
	const n = 5
	type outcome struct {
		deliveries [][]Delivery
		wal        [][]byte
		trace      []props.Event
	}
	run := func(opts Options) outcome {
		delta := time.Millisecond
		opts.Seed, opts.N, opts.Delta = 3, n, delta
		opts.Jitter, opts.Wire, opts.StorageLatency = true, true, delta/4
		opts.Log = &props.Log{}
		c := NewCluster(opts)
		for i := 0; i < 300; i++ {
			i := i
			c.Sim.After(10*time.Millisecond+time.Duration(i)*500*time.Microsecond, func() {
				c.Bcast(types.ProcID(i%n), types.Value(fmt.Sprintf("v%d", i)))
			})
		}
		c.Sim.At(sim.Time(60*time.Millisecond), func() {
			c.Oracle.Partition(c.Procs, types.NewProcSet(0, 1, 2), types.NewProcSet(3, 4))
		})
		c.Sim.At(sim.Time(120*time.Millisecond), func() { c.Oracle.Heal(c.Procs) })
		if err := c.Sim.Run(sim.Time(time.Second)); err != nil {
			t.Fatal(err)
		}
		var o outcome
		for p := types.ProcID(0); p < n; p++ {
			o.deliveries = append(o.deliveries, c.Deliveries(p))
			o.wal = append(o.wal, c.Node(p).WAL().Storage().Contents())
		}
		o.trace = c.Log.Events
		return o
	}
	spelled := run(Options{GroupCommit: true, DeliverPipeline: 64, EagerTokenRounds: true})
	zero := run(Options{})
	if len(zero.deliveries[n-1]) < 300 {
		t.Fatalf("node %d delivered %d of 300 values", n-1, len(zero.deliveries[n-1]))
	}
	for p := 0; p < n; p++ {
		if !reflect.DeepEqual(spelled.deliveries[p], zero.deliveries[p]) {
			t.Errorf("node %d: deliveries differ (%d vs %d)", p, len(spelled.deliveries[p]), len(zero.deliveries[p]))
		}
		if !bytes.Equal(spelled.wal[p], zero.wal[p]) {
			t.Errorf("node %d: WAL images differ (%d vs %d bytes)", p, len(spelled.wal[p]), len(zero.wal[p]))
		}
	}
	if !reflect.DeepEqual(spelled.trace, zero.trace) {
		t.Errorf("traces differ (%d vs %d events)", len(spelled.trace), len(zero.trace))
	}
}

// TestGroupCommitCrashRecovery: an amnesia crash mid-burst — pipelined delivery records in flight, a batch
// write possibly torn — must still rejoin through the WAL with a
// conformant total order, and the surviving nodes must deliver every
// value submitted at them.
func TestGroupCommitCrashRecovery(t *testing.T) {
	c := NewCluster(burstOpts(11, 3, 2*time.Millisecond))
	victim := types.ProcID(1)
	const total = 12
	// Submit only at the nodes that stay up: values buffered at the
	// victim would die with its memory, which is legal but not what this
	// test measures.
	for i := 0; i < total; i++ {
		i := i
		c.Sim.After(time.Duration(10+i*3)*time.Millisecond, func() {
			c.Bcast(types.ProcID((i%2)*2), types.Value(fmt.Sprintf("v%d", i)))
		})
	}
	// Crash while the burst (and its pipelined WAL writes) is in full
	// swing, heal shortly after.
	c.Sim.At(sim.Time(25*time.Millisecond), func() { c.Oracle.SetProc(victim, failures.Amnesia) })
	c.Sim.At(sim.Time(60*time.Millisecond), func() { c.Oracle.Heal(c.Procs) })
	if err := c.Sim.Run(sim.Time(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// The conformance checker is the real assertion: every node's
	// delivery sequence — including the victim's across incarnations —
	// embeds in one common total order.
	toConformance(t, c.Log)
	if c.Node(victim).Recoveries() < 1 {
		t.Fatal("victim never recovered")
	}
	for _, p := range []types.ProcID{0, 2} {
		if got := len(c.Deliveries(p)); got != total {
			t.Fatalf("node %v delivered %d, want %d", p, got, total)
		}
	}
	ref := c.Deliveries(0)
	other := c.Deliveries(2)
	for i := range ref {
		if other[i].Value != ref[i].Value || other[i].From != ref[i].From {
			t.Fatalf("survivors diverge at %d: %v vs %v", i, other[i], ref[i])
		}
	}
}

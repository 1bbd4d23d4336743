package stack

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/failures"
	"repro/internal/props"
	"repro/internal/sim"
	"repro/internal/types"
)

// traceScenario runs a fixed seeded workload —
// jittered links, a 3|1 partition and heal, an amnesia crash and restart —
// recording the cluster trace into log (nil: none).
func traceScenario(t *testing.T, log *props.Log) *Cluster {
	t.Helper()
	c := NewCluster(Options{Seed: 37, N: 4, Delta: time.Millisecond, Jitter: true,
		StorageLatency: time.Millisecond / 4, Log: log})
	for i := 0; i < 120; i++ {
		i := i
		c.Sim.After(time.Duration(5+5*i)*time.Millisecond, func() {
			c.Bcast(types.ProcID(i%4), types.Value(fmt.Sprintf("t%d", i)))
		})
	}
	c.Sim.After(150*time.Millisecond, func() {
		c.Oracle.Partition(c.Procs, types.NewProcSet(0, 1, 2), types.NewProcSet(3))
	})
	c.Sim.After(300*time.Millisecond, func() { c.Oracle.Heal(c.Procs) })
	c.Sim.After(400*time.Millisecond, func() { c.Oracle.SetProc(1, failures.Amnesia) })
	c.Sim.After(450*time.Millisecond, func() { c.Oracle.SetProc(1, failures.Good) })
	if err := c.Sim.Run(sim.Time(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	return c
}

// traceDigest hashes a trace as the JSON lines cmd/tosim writes: the
// initial-view lines in processor order, then every event in order.
func traceDigest(t *testing.T, log *props.Log, procs types.ProcSet) string {
	t.Helper()
	h := sha256.New()
	for _, p := range procs.Members() {
		if v, ok := log.Initial[p]; ok {
			if err := props.AppendInitialJSONL(h, p, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, e := range log.Events {
		if err := props.AppendEventJSONL(h, e); err != nil {
			t.Fatal(err)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestClusterTraceIsOptIn: a cluster built without Options.Log records no
// trace and delivers exactly what a traced one does, and a traced cluster
// records, event for event, the trace every cluster recorded when the
// trace was unconditional. The pinned event count was taken from that
// unconditional trace on this scenario. The digest was re-taken when safe
// upcalls moved after the token's forward: that trace equals the
// unconditional one as a multiset of lines per (instant, processor), and
// three lines of it change places within their instant.
func TestClusterTraceIsOptIn(t *testing.T) {
	const (
		wantEvents = 1629
		wantDigest = "2c6f308f5d31ad78de09b76c964aaa721da74580dec677a0def76c36b78bf30f"
	)
	traced := traceScenario(t, &props.Log{})
	toConformance(t, traced.Log)
	if got := traced.Log.Len(); got != wantEvents {
		t.Errorf("traced run recorded %d events, want %d", got, wantEvents)
	}
	if got := traceDigest(t, traced.Log, traced.Procs); got != wantDigest {
		t.Errorf("trace digest %s, want %s", got, wantDigest)
	}

	plain := traceScenario(t, nil)
	if plain.Log != nil {
		t.Fatalf("untraced cluster has a trace: %d events", plain.Log.Len())
	}
	for _, p := range plain.Procs.Members() {
		if lg := plain.Node(p).VS().Log; lg != nil {
			t.Fatalf("untraced cluster's VS endpoint %v records a trace", p)
		}
		got, want := plain.Deliveries(p), traced.Deliveries(p)
		if len(want) == 0 {
			t.Fatalf("%v delivered nothing: the comparison is vacuous", p)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: untraced run delivered %d values, traced %d, or in another order or time",
				p, len(got), len(want))
		}
	}
}

package vsimpl

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/failures"
	"repro/internal/net"
	"repro/internal/props"
	"repro/internal/sim"
	"repro/internal/types"
)

// cluster is a test fixture: n VS nodes over a simulated network with a
// shared timed event log.
type cluster struct {
	sim    *sim.Sim
	oracle *failures.Oracle
	net    *net.Network
	nodes  map[types.ProcID]*Node
	log    *props.Log
	procs  types.ProcSet
	cfg    Config
}

func newCluster(seed int64, n int, p0Size int, delta time.Duration, jitter bool) *cluster {
	return buildCluster(seed, n, p0Size,
		net.Config{Delta: delta, Jitter: jitter},
		DefaultConfig(delta, n))
}

// buildCluster wires and starts n nodes with the given network and protocol
// configuration; the first p0Size processors start in the initial view.
func buildCluster(seed int64, n int, p0Size int, netCfg net.Config, cfg Config) *cluster {
	s := sim.New(seed)
	oracle := failures.NewOracle(s.Now)
	nw := net.New(s, oracle, netCfg)
	procs := types.RangeProcSet(n)
	p0 := types.NewProcSet(procs.Members()[:p0Size]...)
	c := &cluster{
		sim: s, oracle: oracle, net: nw,
		nodes: make(map[types.ProcID]*Node),
		log:   &props.Log{},
		procs: procs,
		cfg:   cfg,
	}
	for _, p := range procs.Members() {
		node := NewNode(p, procs, p0, s, nw, oracle, cfg, Handlers{})
		node.Log = c.log
		c.nodes[p] = node
	}
	for _, p := range procs.Members() {
		c.nodes[p].Start()
	}
	return c
}

// conformance replays the recorded VS events through the Lemma 4.2
// checker.
func (c *cluster) conformance(t *testing.T, p0 types.ProcSet) {
	t.Helper()
	ck := check.NewVSChecker(c.procs, p0)
	for _, e := range c.log.Events {
		var err error
		switch e.Kind {
		case props.VSNewview:
			err = ck.Newview(e.View, e.P)
		case props.VSGpsnd:
			err = ck.Gpsnd(e.Msg)
		case props.VSGprcv:
			err = ck.Gprcv(e.Msg, e.P)
		case props.VSSafe:
			err = ck.Safe(e.Msg, e.P)
		}
		if err != nil {
			t.Fatalf("VS conformance: %v\nevent: %v", err, e)
		}
	}
}

func (c *cluster) p0(size int) types.ProcSet {
	return types.NewProcSet(c.procs.Members()[:size]...)
}

// TestStableViewDelivery: all processors good, everyone in the initial
// view; messages sent are delivered everywhere and become safe within the
// analytic d bound.
func TestStableViewDelivery(t *testing.T) {
	const n = 5
	delta := time.Millisecond
	c := newCluster(7, n, n, delta, false)

	// Send a burst of messages from every node shortly after start.
	c.sim.After(2*c.cfg.Pi, func() {
		for _, p := range c.procs.Members() {
			c.nodes[p].Gpsnd(fmt.Sprintf("hello-from-%v", p))
		}
	})
	if err := c.sim.Run(sim.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	c.conformance(t, c.procs)

	m := props.MeasureVS(c.log, c.procs, 0)
	if !m.Converged {
		t.Fatalf("views did not converge: %+v", m)
	}
	if m.FinalView.ID != types.G0() {
		t.Errorf("stable run changed views: final %v", m.FinalView)
	}
	if m.IncompleteSafe > 0 {
		t.Fatalf("%d/%d messages missing safe events", m.IncompleteSafe, m.MsgsMeasured)
	}
	if want := c.cfg.AnalyticD(n); m.MaxSafeLag > want {
		t.Errorf("safe lag %v exceeds analytic d=%v", m.MaxSafeLag, want)
	}
	if m.MsgsMeasured != n {
		t.Errorf("measured %d messages, want %d", m.MsgsMeasured, n)
	}
}

// TestPartitionFormsTwoViews: cutting the network in two must produce two
// disjoint views, each holding its component exactly, within the analytic
// stabilization bound b.
func TestPartitionFormsTwoViews(t *testing.T) {
	const n = 6
	delta := time.Millisecond
	c := newCluster(11, n, n, delta, false)
	left := types.NewProcSet(0, 1, 2)
	right := types.NewProcSet(3, 4, 5)

	var cut sim.Time
	c.sim.After(50*time.Millisecond, func() {
		c.oracle.Partition(c.procs, left, right)
		cut = c.sim.Now()
	})
	if err := c.sim.Run(sim.Time(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	c.conformance(t, c.procs)

	b := c.cfg.AnalyticB(n)
	for _, q := range []types.ProcSet{left, right} {
		m := props.MeasureVS(c.log, q, cut)
		if !m.Converged {
			t.Fatalf("component %v did not converge to its own view", q)
		}
		if m.LPrime > b {
			t.Errorf("component %v stabilized in %v, exceeding analytic b=%v", q, m.LPrime, b)
		}
	}
}

// TestMergeAfterHeal: healing a partition must merge the components back
// into one view over the full universe.
func TestMergeAfterHeal(t *testing.T) {
	const n = 5
	delta := time.Millisecond
	c := newCluster(13, n, n, delta, false)
	left := types.NewProcSet(0, 1, 2)
	right := types.NewProcSet(3, 4)

	c.sim.After(50*time.Millisecond, func() { c.oracle.Partition(c.procs, left, right) })
	var heal sim.Time
	c.sim.After(400*time.Millisecond, func() {
		c.oracle.Heal(c.procs)
		heal = c.sim.Now()
	})
	if err := c.sim.Run(sim.Time(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	c.conformance(t, c.procs)

	m := props.MeasureVS(c.log, c.procs, heal)
	if !m.Converged {
		for _, p := range c.procs.Members() {
			v, ok := c.nodes[p].View()
			t.Logf("%v: view %v (defined %t)", p, v, ok)
		}
		t.Fatalf("universe did not merge after heal")
	}
	if b := c.cfg.AnalyticB(n); m.LPrime > b {
		t.Errorf("merge took %v, exceeding analytic b=%v", m.LPrime, b)
	}
}

// TestCrashAndRecovery: a stopped leader must be excluded within the
// stabilization bound, and reintegrated after it recovers.
func TestCrashAndRecovery(t *testing.T) {
	const n = 4
	delta := time.Millisecond
	c := newCluster(17, n, n, delta, false)
	survivors := types.NewProcSet(1, 2, 3)

	var crash sim.Time
	c.sim.After(40*time.Millisecond, func() {
		// Processor 0 is the initial leader: stopping it also kills the
		// token.
		c.oracle.SetProc(0, failures.Bad)
		// Channels to and from it are bad too (a stopped endpoint).
		for _, p := range survivors.Members() {
			c.oracle.SetChannel(0, p, failures.Bad)
			c.oracle.SetChannel(p, 0, failures.Bad)
		}
		crash = c.sim.Now()
	})
	var recover sim.Time
	c.sim.After(500*time.Millisecond, func() {
		c.oracle.Heal(c.procs)
		recover = c.sim.Now()
	})
	if err := c.sim.Run(sim.Time(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	c.conformance(t, c.procs)

	mSurv := props.MeasureVS(c.log.Until(recover), survivors, crash)
	if !mSurv.Converged {
		t.Fatalf("survivors did not form their own view after the crash")
	}
	if b := c.cfg.AnalyticB(n); mSurv.LPrime > b {
		t.Errorf("survivor convergence took %v, exceeding analytic b=%v", mSurv.LPrime, b)
	}
	// Note survivors converge and later merge with the recovered node, so
	// measure survivor convergence against the pre-recovery portion: the
	// final view over everyone must exist after recovery.
	mAll := props.MeasureVS(c.log, c.procs, recover)
	if !mAll.Converged {
		t.Fatalf("recovered processor was not reintegrated")
	}
}

// TestSendWithoutViewIgnored: a processor outside any view may gpsnd;
// the message must be ignored, never delivered.
func TestSendWithoutViewIgnored(t *testing.T) {
	const n = 3
	c := newCluster(19, n, 2 /* p2 starts with no view */, time.Millisecond, false)
	outsider := c.nodes[types.ProcID(2)]
	outsider.Gpsnd("orphan")
	if err := c.sim.Run(sim.Time(200 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	c.conformance(t, c.p0(2))
	for _, e := range c.log.Events {
		if e.Kind == props.VSGprcv && e.Msg.Sender == 2 && e.Msg.Seq == 0 {
			t.Fatalf("orphan message delivered: %v", e)
		}
	}
	if outsider.Stats().Sent != 0 {
		t.Errorf("gpsnd with no view counted as sent")
	}
}

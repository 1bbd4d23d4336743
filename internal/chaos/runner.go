package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/check"
	"repro/internal/failures"
	"repro/internal/net"
	"repro/internal/obs"
	"repro/internal/props"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/types"
)

// Config fully determines one chaos run. Zero values get defaults from
// withDefaults; the effective (defaulted) config is recorded in the Result
// and in any artifact, so replays never depend on default drift.
type Config struct {
	Campaign CampaignType
	Seed     int64
	// N is the cluster size (default 5).
	N int
	// Delta is the network δ (default 1ms).
	Delta time.Duration
	// Wire turns on wire-codec transcoding of every payload.
	Wire bool
	// Window is the adversary's active interval (default 4s). The runner
	// force-heals the world at the end of the window (or just after the
	// schedule's last event, whichever is later), independent of the
	// schedule — the heal is part of the harness hypothesis, not of the
	// shrinkable adversary.
	Window time.Duration
	// RecoveryBound overrides the recovery-liveness deadline after the
	// final heal; 0 means the analytic default b + 2·d_impl for the
	// cluster's configuration.
	RecoveryBound time.Duration
	// StorageLatency is each node's stable-storage write latency λ (see
	// stack.Options.StorageLatency). Zero keeps λ = 0, except for the
	// torn-write campaign, which defaults it to δ/4 so amnesia strikes can
	// land while WAL records are in flight.
	StorageLatency time.Duration
	// CheckpointBytes passes stack.Options.CheckpointBytes through: WAL
	// snapshot/compaction every so many log bytes (0 disables). The
	// amnesia campaigns run with it set in tests, proving recovery from a
	// compacted log preserves rejoin safety.
	CheckpointBytes int
	// SkipRecoveryReplay passes stack.Options.SkipRecoveryReplay through:
	// amnesia recovery restarts from an empty snapshot instead of a WAL
	// replay. Tests use it to verify the harness catches (and shrinks to) a
	// broken recovery path. Never set it otherwise.
	SkipRecoveryReplay bool
	// Schedule, when non-nil, is used verbatim instead of generating the
	// campaign from the seed (replay and shrinking paths).
	Schedule failures.Schedule
	// ExtraCheck, when non-nil, runs after the built-in checks and may
	// report an additional violation. Tests use it to inject deliberately
	// broken oracles and verify the shrinking pipeline end to end.
	ExtraCheck func(*Result) *Violation
}

func (c Config) withDefaults() Config {
	if c.Campaign == "" {
		c.Campaign = Mixed
	}
	if c.N == 0 {
		c.N = 5
	}
	if c.Delta == 0 {
		c.Delta = time.Millisecond
	}
	if c.Window == 0 {
		c.Window = 4 * time.Second
	}
	if c.StorageLatency == 0 && c.Campaign == TornWrite {
		c.StorageLatency = c.Delta / 4
	}
	return c
}

// Violation describes one failed check.
type Violation struct {
	// Check names the failed oracle: "conformance", "recovery-liveness",
	// "no-traffic", "rejoin-safety", "quorum-loss", "sim", or an
	// ExtraCheck-defined name.
	Check string
	// Detail is the human-readable diagnosis.
	Detail string
}

func (v *Violation) String() string {
	if v == nil {
		return "ok"
	}
	return fmt.Sprintf("%s: %s", v.Check, v.Detail)
}

// Result is the outcome of one run.
type Result struct {
	// Config is the effective configuration (defaults resolved).
	Config Config
	// Schedule is the fault schedule that ran (generated or supplied).
	Schedule failures.Schedule
	// HealTime is when the runner force-healed the world.
	HealTime sim.Time
	// Bound is the effective recovery-liveness deadline after HealTime.
	Bound time.Duration
	// Msgs counts the client submissions their origin accepted (an
	// amnesiac origin refuses); Deliveries counts TO deliveries summed over
	// all nodes.
	Msgs, Deliveries int
	// LossEpochs are the schedule's quorum-loss intervals (quorum-loss
	// campaigns only): the intervals the quorum-loss check guarded.
	LossEpochs []Epoch
	// Net is the final network activity; PostHeal is the activity in the
	// window after the final heal (the non-vacuity evidence).
	Net, PostHeal net.Stats
	// VSEvents counts VS-layer events that passed through the checker.
	VSEvents int
	// Recovery is the recovery-liveness measurement.
	Recovery props.RecoveryMeasure
	// Violation is nil iff every check passed.
	Violation *Violation
	// Cluster is the finished cluster, for ExtraCheck and tests; nil after
	// artifact round trips.
	Cluster *stack.Cluster
	// Obs is the run's observability registry (per-layer metrics plus the
	// ring-buffer event trace); a failing run's artifact dumps both.
	Obs *obs.Registry
}

// Failed reports whether any check failed.
func (r *Result) Failed() bool { return r.Violation != nil }

// Run executes one chaos run to completion and checks it. It never calls
// the wall clock or global randomness: the result is a pure function of
// the config.
func Run(cfg Config) *Result {
	cfg = cfg.withDefaults()
	res := &Result{Config: cfg}

	sched := cfg.Schedule
	if sched == nil {
		spec := Spec{N: cfg.N, Delta: cfg.Delta, Window: cfg.Window}
		spec.Pi = time.Duration(cfg.N+2) * cfg.Delta // mirrors vsimpl.DefaultConfig
		var err error
		sched, err = Generate(cfg.Campaign, cfg.Seed, spec)
		if err != nil {
			res.Violation = &Violation{Check: "config", Detail: err.Error()}
			return res
		}
	}
	res.Schedule = sched

	// Every run is instrumented: the metrics are cheap atomics and the
	// trace ring holds the causal tail a failing run's artifact dumps.
	reg := obs.New()
	reg.EnableTrace(obs.DefaultTraceCapacity)
	res.Obs = reg
	// The cluster runs the shipped data path, so every campaign, shrink
	// and replay tests what pgcsd runs.
	c := stack.NewCluster(stack.Options{
		Seed: cfg.Seed, N: cfg.N, Delta: cfg.Delta, Wire: cfg.Wire,
		StorageLatency:     cfg.StorageLatency,
		CheckpointBytes:    cfg.CheckpointBytes,
		SkipRecoveryReplay: cfg.SkipRecoveryReplay,
		Obs:                reg,
		Log:                &props.Log{},
	}.Batched())
	res.Cluster = c
	bound := cfg.RecoveryBound
	if bound == 0 {
		bound = c.Cfg.AnalyticB(cfg.N) + 2*c.Cfg.AnalyticDImpl(cfg.N)
	}
	res.Bound = bound

	// The forced final heal establishes the recovery-liveness hypothesis.
	// It always lands strictly after the schedule's last event.
	healT := sim.Time(cfg.Window)
	if end := sched.End(); end >= healT {
		healT = end + 1
	}
	res.HealTime = healT

	c.ApplySchedule(sched)
	c.Sim.At(healT, func() {
		res.PostHeal = c.Net.Snapshot() // baseline; subtracted below
		c.Oracle.Heal(c.Procs)
	})

	// Continuous traffic from an rng independent of the schedule's, so a
	// shrunk schedule faces the identical workload.
	traffic := rand.New(rand.NewSource(cfg.Seed*0x9e3779b9 + 1))
	offered := 0
	var load func()
	load = func() {
		if c.Sim.Now() >= healT {
			return
		}
		c.Sim.After(time.Duration(20+traffic.Intn(40))*time.Millisecond, load)
		offered++
		if c.Bcast(types.ProcID(traffic.Intn(cfg.N)), types.Value(fmt.Sprintf("c%d", offered))) {
			res.Msgs++
		}
	}
	c.Sim.After(10*time.Millisecond, load)

	// Run past the recovery deadline so a late delivery is observed as
	// late rather than missing.
	c.Sim.SetBudget(50_000_000)
	if err := c.Sim.Run(healT.Add(bound + bound/2)); err != nil {
		res.Violation = &Violation{Check: "sim", Detail: err.Error()}
		return res
	}
	res.Net = c.Net.Snapshot()
	res.PostHeal = res.Net.Sub(res.PostHeal)
	res.Deliveries = c.TotalDeliveries()

	// Check 1: full TO/VS trace conformance (safety).
	vck, _, err := Conformance(c.Log, c.Procs, c.Procs)
	res.VSEvents = vck.Events()
	if err != nil {
		res.Violation = &Violation{Check: "conformance", Detail: err.Error()}
		return res
	}

	// Check 2: recovery liveness — after the forced heal the whole
	// universe is a consistently good (hence quorum) component, so
	// everything ever submitted must be delivered everywhere within the
	// bound.
	res.Recovery = props.MeasureRecovery(c.Log, c.Procs, healT, bound)
	if res.Recovery.FirstViolation != "" {
		res.Violation = &Violation{Check: "recovery-liveness", Detail: res.Recovery.FirstViolation}
		return res
	}

	// Check 3: non-vacuity — traffic must actually have flowed. A
	// schedule (or harness bug) that blackholes everything passes the
	// safety checks without testing anything.
	if res.Msgs == 0 || res.PostHeal.Delivered == 0 || res.Deliveries == 0 {
		res.Violation = &Violation{Check: "no-traffic", Detail: fmt.Sprintf(
			"msgs=%d post-heal packets=%d deliveries=%d: run is vacuous",
			res.Msgs, res.PostHeal.Delivered, res.Deliveries)}
		return res
	}

	// Check 4: rejoin safety — a processor rebuilt from its WAL after an
	// amnesia crash never re-delivers, rewinds, or skips relative to the
	// delivery prefix it persisted before the crash.
	if err := props.CheckRejoinSafety(c.Log, c.Crashes); err != nil {
		res.Violation = &Violation{Check: "rejoin-safety", Detail: err.Error()}
		return res
	}

	// Check 5 (quorum-loss campaigns): while the schedule holds a quorum's
	// worth of nodes faulted no primary can exist, so the total order must
	// not grow — the simulator's form of the live primary-loss guard.
	// Recovery after the heal is check 2.
	if cfg.Campaign.QuorumLoss() {
		res.LossEpochs = LossEpochs(sched, cfg.N)
		if err := checkQuorumLoss(c.Log, res.LossEpochs, c.Cfg.AnalyticB(cfg.N)); err != nil {
			res.Violation = &Violation{Check: "quorum-loss", Detail: err.Error()}
			return res
		}
	}

	if cfg.ExtraCheck != nil {
		res.Violation = cfg.ExtraCheck(res)
	}
	return res
}

// checkQuorumLoss verifies that the total order did not grow inside any
// loss epoch's guarded interval (Start+grace, End]: no processor's
// delivered prefix may become longer than the longest held anywhere before
// it. A minority may lawfully release the established order — survivors
// exchange state, a restarted processor catches up — but only a primary
// can extend it. (The log passed conformance, so prefix lengths compare
// across processors.) The grace, the analytic b, covers deliveries in
// flight when the quorum is lost.
func checkQuorumLoss(log *props.Log, epochs []Epoch, grace time.Duration) error {
	delivered := make(map[types.ProcID]int)
	longest := 0
	for _, e := range log.Events {
		if e.Kind != props.TOBrcv {
			continue
		}
		delivered[e.P]++
		if delivered[e.P] <= longest {
			continue
		}
		for _, ep := range epochs {
			if e.T > ep.Start.Add(grace) && e.T <= ep.End {
				return fmt.Errorf("%v delivered %q at %v as value %d of the order, past the longest prefix %d held before: the order grew inside loss epoch [%v, %v] (grace %v)",
					e.P, e.Value, e.T, delivered[e.P], longest, ep.Start, ep.End, grace)
			}
		}
		longest = delivered[e.P]
	}
	return nil
}

// Conformance replays a recorded log through the VS and TO trace checkers
// and returns both checkers (their event counts and the TO order they
// built) plus the first violation, if any. p0 is the initial-view
// membership (the stack starts every processor inside it unless
// Options.P0Size says otherwise).
func Conformance(log *props.Log, universe, p0 types.ProcSet) (*check.VSChecker, *check.TOChecker, error) {
	vck := check.NewVSChecker(universe, p0)
	tck := check.NewTOChecker()
	for _, e := range log.Events {
		var err error
		switch e.Kind {
		case props.VSNewview:
			err = vck.Newview(e.View, e.P)
		case props.VSGpsnd:
			err = vck.Gpsnd(e.Msg)
		case props.VSGprcv:
			err = vck.Gprcv(e.Msg, e.P)
		case props.VSSafe:
			err = vck.Safe(e.Msg, e.P)
		case props.TOBcast:
			tck.Bcast(e.Value, e.P)
		case props.TOBrcv:
			err = tck.Brcv(e.Value, e.From, e.P)
		}
		if err != nil {
			return vck, tck, fmt.Errorf("%v (event: %v)", err, e)
		}
	}
	return vck, tck, nil
}

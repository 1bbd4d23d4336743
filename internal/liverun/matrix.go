// Package liverun is the process-level scenario harness around the pgcsd
// daemon (internal/live). It boots N daemons on localhost, drives them
// with the load generator while a chaos campaign's failures.Schedule
// runs against the real processes (signals, respawns, listener pauses),
// and judges every scenario with the checks chaos.Run gives every
// simulated campaign: TO conformance of the merged trace, WAL rejoin
// safety, non-vacuity, bounded recovery after the final heal, and zero
// hard loadgen failures. The quorum-loss families also pass the
// primary-loss guard. cmd/liverun and cmd/loadgen are its commands; the
// daemon itself never links it.
package liverun

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/chaos"
	"repro/internal/failures"
	"repro/internal/live"
)

// ScenarioOptions configures one chaos-driven live scenario: a real
// N-process cluster under load while a generated fault schedule drives
// the process/socket injector.
type ScenarioOptions struct {
	Dir       string
	PgcsdPath string
	N         int
	Delta     time.Duration
	Seed      int64
	BasePort  int
	// Rate drives the loadgen for the whole scenario (window + settle).
	Rate int
	// Window is the fault schedule's active interval (default 12s). After
	// it the runner heals everything and lets the cluster settle under
	// continuing load before the graceful stop.
	Window time.Duration
	// Settle is the post-heal load interval (default 5s) — the traffic
	// that proves the healed cluster delivers again.
	Settle time.Duration
	// CheckpointBytes arms WAL compaction at every daemon (0 disables).
	CheckpointBytes int
	Logf            func(string, ...any)
}

// ScenarioResult is one scenario's replayable artifact: the exact fault
// schedule that ran plus every check's verdict and the evidence the run
// was not vacuous.
type ScenarioResult struct {
	Scenario Scenario   `json:"scenario"`
	Entry    LoadReport `json:"entry"`
	OrderLen int        `json:"order_len"`
	// Injected counts executed injector steps per class (sigstop,
	// sigcont, sigkill, restart, lpause, lresume, cycle); InjectErrs lists
	// injection failures (a step against a node that died first is
	// recorded, not fatal).
	Injected   map[string]int `json:"injected"`
	InjectErrs []string       `json:"inject_errs,omitempty"`
	// Restarts counts post-boot incarnations summed over nodes.
	Restarts int `json:"restarts"`
	// StopErrs lists nodes whose graceful exit had to be escalated.
	StopErrs []string `json:"stop_errs,omitempty"`
	CheckOK  bool     `json:"check_ok"`
	CheckErr string   `json:"check_err,omitempty"`
	// RejoinOK is the per-node WAL/trace rejoin-safety verdict
	// (CheckRejoinWAL over every node's final WAL and incarnation
	// traces).
	RejoinOK  bool   `json:"rejoin_ok"`
	RejoinErr string `json:"rejoin_err,omitempty"`
	// BasePort is the port block the scenario actually ran on (the probe
	// may have advanced it past busy blocks).
	BasePort int `json:"base_port,omitempty"`

	// RecoveryOK is the bounded-recovery gate, with RecoveryMS the
	// observed resumption offset after the final heal (at HealMS).
	// HardFailures counts loadgen ops that exhausted their retry budget —
	// zero on a passing run; stalls must be attributed, not fatal.
	// Samples is the status sampler's evidence for the timed gates.
	RecoveryOK   bool             `json:"recovery_ok"`
	RecoveryMS   int64            `json:"recovery_ms"`
	RecoveryErr  string           `json:"recovery_err,omitempty"`
	HealMS       int64            `json:"heal_ms"`
	HardFailures int64            `json:"hard_failures"`
	Samples      []DeliverySample `json:"samples,omitempty"`
	// PrimaryLossOK (QuorumLoss campaign kinds only) is the inverted
	// non-vacuity guard: delivery provably flatlined cluster-wide during
	// every loss epoch.
	PrimaryLossOK  bool   `json:"primary_loss_ok,omitempty"`
	PrimaryLossErr string `json:"primary_loss_err,omitempty"`
}

// Passed reports whether every check held.
func (r *ScenarioResult) Passed() bool {
	if !r.CheckOK || !r.RejoinOK || !r.RecoveryOK || r.HardFailures > 0 {
		return false
	}
	return r.PrimaryLossOK || !r.Scenario.Kind.QuorumLoss()
}

// The timed gates: the primary-loss guard's grace (quorum-loss kinds) and
// the recovery bound (every scenario).
const (
	// LossGrace is the primary-loss detector's per-epoch grace prefix:
	// survivors forming a minority view may legitimately release
	// already-ordered values for this long after loss onset.
	LossGrace = 750 * time.Millisecond
	// RecoveryBound is the bounded-recovery gate: delivery must resume
	// within this long after the final heal — inside Settle + the loadgen
	// drain, with ~2x headroom over the worst observed re-formation
	// (split-rejoin at n=10 resumes in ~6s because the heal cascades
	// through several pairwise view merges).
	RecoveryBound = 12 * time.Second
)

// loadShape is one loadgen traffic shape (see LoadOptions).
type loadShape struct {
	profile, arrival string
	open             bool
}

// runScenario generates the campaign's schedule deterministically from
// (kind, Seed, N, Window) — chaos.Generate, the schedule cmd/chaos runs in
// the simulator for the same four values — refuses it unless the injector
// can execute every event (Executable), runs it against a fresh cluster in
// opts.Dir under the given load shape, and writes the artifact to
// <Dir>/scenario.json. The returned error covers infrastructure failures
// and check violations alike: nil means the cluster survived the
// schedule, the merged trace is a TO-machine trace, every restarted node
// rejoined against its WAL safely, traffic actually flowed, the order
// grew again within RecoveryBound of the final heal, and no loadgen op
// failed hard — the checks chaos.Run applies to every simulated campaign.
func runScenario(kind chaos.CampaignType, opts ScenarioOptions, shape loadShape) (*ScenarioResult, error) {
	logf := opts.Logf
	basePort, err := probeBasePort(opts.BasePort, opts.N, 8, string(kind))
	if err != nil {
		return nil, err
	}
	if basePort != opts.BasePort {
		logf("scenario %s: base port %d busy; using %d", kind, opts.BasePort, basePort)
	}
	cfg := makeConfig(opts.N, opts.Delta, opts.Seed, basePort)

	events, err := chaos.Generate(kind, opts.Seed, chaos.Spec{N: opts.N, Delta: cfg.Delta(), Window: opts.Window})
	if err != nil {
		return nil, err
	}
	if err := Executable(events, opts.N); err != nil {
		return nil, fmt.Errorf("%w (campaign %s runs in the simulator only: cmd/chaos)", err, kind)
	}
	sc := Scenario{
		Kind: kind, Seed: opts.Seed, N: opts.N, WindowMS: opts.Window.Milliseconds(),
		Events: events, LossEpochs: chaos.LossEpochs(events, opts.N),
	}
	res := &ScenarioResult{Scenario: sc, Injected: make(map[string]int), BasePort: basePort}

	cl, err := newCluster(opts.Dir, opts.PgcsdPath, cfg, opts.CheckpointBytes, logf)
	if err != nil {
		return nil, err
	}
	defer cl.killAll()
	if err := cl.spawnAll(); err != nil {
		return nil, err
	}
	if err := cl.readyAll(); err != nil {
		return nil, err
	}
	logf("scenario %s: %d nodes ready, %d events over %v", kind, opts.N, len(events), opts.Window)

	// Load runs for the whole scenario plus the settle tail; the injector
	// walks the schedule concurrently, and the status sampler runs on the
	// injector's clock: its wall-offset samples are the evidence for the
	// bounded-recovery and primary-loss gates, which trace timestamps
	// (per-incarnation sim time) cannot provide.
	start := time.Now()
	sampler := startStatusSampler(cl.clientAddrs(), start, 200*time.Millisecond, logf)

	type loadOut struct {
		entry LoadReport
		err   error
	}
	loadDone := make(chan loadOut, 1)
	go func() {
		entry, err := RunLoad(LoadOptions{
			Addrs:    cl.clientAddrs(),
			Rate:     opts.Rate,
			Duration: opts.Window + opts.Settle,
			RunID:    fmt.Sprintf("%s-s%d", kind, opts.Seed),
			Profile:  shape.profile,
			Arrival:  shape.arrival,
			OpenLoop: shape.open,
			Seed:     opts.Seed,
			Logf:     logf,
		})
		loadDone <- loadOut{entry, err}
	}()

	injectErr := cl.inject(events, start, res, logf)
	cl.healSweep(res, logf)
	// The final-heal instant anchors the recovery bound. Measuring it
	// when healSweep returns (not at the schedule's nominal end) absorbs
	// injection lag: a late heal only shortens the guarded interval,
	// never blames the cluster for the injector's delay.
	res.HealMS = time.Since(start).Milliseconds()
	logf("scenario %s: schedule done (%d events), settling", kind, len(events))

	load := <-loadDone
	res.Samples = sampler.stopAndSamples()
	if load.err != nil {
		return nil, fmt.Errorf("liverun: loadgen: %w", load.err)
	}
	res.Entry = load.entry
	res.HardFailures = load.entry.Counters["loadgen.hard_failures"]
	if injectErr != nil {
		return nil, injectErr // unrecoverable injection failure (e.g. respawn)
	}

	for _, err := range cl.stopAll(10 * time.Second) {
		res.StopErrs = append(res.StopErrs, err.Error())
	}

	logs, err := cl.mergedLogs()
	if err != nil {
		return nil, err
	}
	chk, checkErr := live.CheckMergedTO(logs)
	res.OrderLen = chk.OrderLen()
	res.CheckOK = checkErr == nil
	if checkErr != nil {
		res.CheckErr = checkErr.Error()
	}

	res.RejoinOK = true
	for i := 0; i < opts.N; i++ {
		if err := CheckRejoinWAL(cl.walPath(i), cl.traceFiles(i)); err != nil {
			res.RejoinOK = false
			res.RejoinErr = err.Error()
			break
		}
	}

	cl.mu.Lock()
	for _, r := range cl.restarts {
		res.Restarts += r - 1
	}
	cl.mu.Unlock()

	resume, recErr := CheckBoundedRecovery(res.Samples, res.HealMS, RecoveryBound.Milliseconds())
	res.RecoveryOK = recErr == nil
	res.RecoveryMS = resume
	if recErr != nil {
		res.RecoveryErr = recErr.Error()
	}
	// For quorum-loss kinds CheckPrimaryLoss is the non-vacuity guard
	// turned inside out: the schedule deliberately destroys the quorum,
	// and the interesting property is that delivery provably flatlined
	// while no primary could exist.
	if kind.QuorumLoss() {
		lossErr := CheckPrimaryLoss(res.Samples, sc.LossEpochs, LossGrace)
		res.PrimaryLossOK = lossErr == nil
		if lossErr != nil {
			res.PrimaryLossErr = lossErr.Error()
		}
	}

	if b, err := json.MarshalIndent(res, "", "  "); err == nil {
		os.WriteFile(filepath.Join(opts.Dir, "scenario.json"), append(b, '\n'), 0o644)
	}

	if checkErr != nil {
		return res, fmt.Errorf("liverun: %s: TO conformance: %w", kind, checkErr)
	}
	if !res.RejoinOK {
		return res, fmt.Errorf("liverun: %s: rejoin safety: %s", kind, res.RejoinErr)
	}
	// Non-vacuity: traffic flowed, an order formed, faults actually
	// landed, and a schedule with an amnesia event produced a restart.
	total := 0
	for _, c := range res.Injected {
		total += c
	}
	if res.Entry.Deliveries == 0 || res.OrderLen == 0 || total == 0 {
		return res, fmt.Errorf("liverun: %s: vacuous run: deliveries=%d order=%d injected=%d",
			kind, res.Entry.Deliveries, res.OrderLen, total)
	}
	for _, e := range events {
		if e.Status == failures.Amnesia && res.Restarts == 0 {
			return res, fmt.Errorf("liverun: %s: vacuous run: no node ever restarted", kind)
		}
	}
	if kind.QuorumLoss() && !res.PrimaryLossOK {
		return res, fmt.Errorf("liverun: %s: primary-loss guard: %s", kind, res.PrimaryLossErr)
	}
	if !res.RecoveryOK {
		return res, fmt.Errorf("liverun: %s: bounded recovery: %s", kind, res.RecoveryErr)
	}
	if res.HardFailures > 0 {
		return res, fmt.Errorf("liverun: %s: %d loadgen ops failed hard (retry budget exhausted); stalls must be attributed, not fatal",
			kind, res.HardFailures)
	}
	return res, nil
}

// inject walks the schedule in time order against the live cluster, one
// injector step (unit) at a time. Per-step failures (a kill racing an
// already-dead process, a control connection to a paused node) are
// recorded in res and injection continues; only a failed respawn aborts,
// because the cluster can no longer reach the healed end state the checks
// assume.
func (cl *cluster) inject(events failures.Schedule, start time.Time, res *ScenarioResult, logf func(string, ...any)) error {
	for len(events) > 0 {
		e := events[0]
		k, err := unit(events, len(cl.cfg.Nodes))
		if err != nil {
			return err // runScenario checked Executable; unreachable
		}
		events = events[k:]
		if d := time.Until(start.Add(e.Time.Duration())); d > 0 {
			time.Sleep(d)
		}
		class, err := cl.apply(e, k == 2)
		logf("inject: %s (%v)", class, e)
		if err != nil {
			if class == "restart" || class == "cycle" {
				return fmt.Errorf("liverun: inject %s (%v): %w", class, e, err)
			}
			res.InjectErrs = append(res.InjectErrs, fmt.Sprintf("%s (%v): %v", class, e, err))
			continue
		}
		res.Injected[class]++
	}
	return nil
}

// apply executes the injector step that starts with event e (see unit)
// and names its class (the key it is counted under in Injected).
func (cl *cluster) apply(e failures.Event, cycle bool) (class string, err error) {
	if e.Channel {
		if e.Status == failures.Bad {
			return "lpause", cl.control(int(e.Pair.To), (*live.Client).PauseListener)
		}
		return "lresume", cl.control(int(e.Pair.To), (*live.Client).ResumeListener)
	}
	id := int(e.Proc)
	p := cl.proc(id)
	switch {
	case cycle:
		cl.control(id, (*live.Client).Stop) // a daemon that cannot hear it is escalated below
		if err := p.WaitExit(10 * time.Second); err != nil {
			return "cycle", err
		}
		return "cycle", cl.spawn(id)
	case e.Status == failures.Bad:
		return "sigstop", p.Apply(e.Status)
	case e.Status == failures.Amnesia:
		return "sigkill", p.Apply(e.Status)
	case p.Exited():
		return "restart", cl.spawn(id)
	default:
		return "sigcont", p.Apply(e.Status)
	}
}

// control runs one listener command over a short-lived client connection.
func (cl *cluster) control(id int, fn func(*live.Client) error) error {
	c, err := live.DialClient(cl.cfg.Nodes[id].ClientAddr, 5*time.Second)
	if err != nil {
		return err
	}
	defer c.Close()
	return fn(c)
}

// healSweep forces the fully-healed end state the checks assume,
// regardless of what the schedule left behind: every process running
// (SIGCONT is a no-op on a running one, dead nodes are respawned) and
// every listener accepting. Errors against healthy nodes are expected
// (LRESUME on a never-paused listener is still OK; a redundant SIGCONT
// is too) and ignored; a failed respawn is counted so non-vacuity can
// catch a cluster that never fully healed.
func (cl *cluster) healSweep(res *ScenarioResult, logf func(string, ...any)) {
	for i := range cl.cfg.Nodes {
		p := cl.proc(i)
		if p == nil || p.Exited() {
			logf("heal: respawning node %d", i)
			if err := cl.spawn(i); err != nil {
				res.InjectErrs = append(res.InjectErrs, fmt.Sprintf("heal respawn node %d: %v", i, err))
			}
			continue
		}
		p.Apply(failures.Good)
	}
	for i := range cl.cfg.Nodes {
		cl.control(i, (*live.Client).ResumeListener)
	}
}

// MatrixOptions configures a full scenario-matrix run.
type MatrixOptions struct {
	// ScenarioOptions is what every scenario runs with, except that each
	// gets its own subdirectory of Dir, the next Seed, a fresh port block
	// above BasePort, and the next of the rotating load shapes.
	ScenarioOptions
	// Kinds defaults to every process-level campaign of chaos.Campaigns.
	Kinds []chaos.CampaignType
}

// MatrixResult is the whole matrix's outcome.
type MatrixResult struct {
	Scenarios []*ScenarioResult `json:"scenarios"`
	// Failed names the scenarios whose run or checks failed.
	Failed []string `json:"failed,omitempty"`
}

// loadShapes rotates the loadgen profile across the matrix so every
// scenario family meets more than one traffic shape over the seeds.
var loadShapes = []loadShape{
	{"uniform", "steady", false},
	{"zipfian", "steady", false},
	{"uniform", "bursty", false},
	{"zipfian", "bursty", true},
}

// RunMatrix runs every scenario kind, each in its own subdirectory and
// port range, writing one replayable scenario.json artifact per scenario
// and matrix.json at the top. Scenarios run sequentially (each wants the
// machine to itself); a failing scenario doesn't stop the rest. The
// returned error summarizes the failures, if any.
func RunMatrix(opts MatrixOptions) (*MatrixResult, error) {
	kinds := opts.Kinds
	if len(kinds) == 0 {
		for _, ct := range chaos.Campaigns {
			if ct.ProcessLevel() {
				kinds = append(kinds, ct)
			}
		}
	}
	if opts.BasePort <= 0 {
		// Below the kernel's ephemeral range (net.ipv4.ip_local_port_range,
		// 32768+ by default): an outbound dial must never be handed one of
		// our listen ports as its source port, or the daemon's bind fails
		// with EADDRINUSE.
		opts.BasePort = 23600
	}
	if opts.Window <= 0 {
		opts.Window = 12 * time.Second
	}
	if opts.Settle <= 0 {
		opts.Settle = 5 * time.Second
	}
	if opts.Rate <= 0 {
		opts.Rate = 100
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	logf := opts.Logf

	res := &MatrixResult{}
	for i, kind := range kinds {
		shape := loadShapes[i%len(loadShapes)]
		logf("=== scenario %d/%d: %s (load %s/%s) ===", i+1, len(kinds), kind, shape.profile, shape.arrival)
		so := opts.ScenarioOptions
		so.Dir = filepath.Join(opts.Dir, string(kind))
		so.Seed = opts.Seed + int64(i)
		so.BasePort = opts.BasePort + i*2*opts.N // fresh ports: no TIME_WAIT collisions
		sr, err := runScenario(kind, so, shape)
		if sr != nil {
			res.Scenarios = append(res.Scenarios, sr)
		}
		if err != nil {
			logf("scenario %s FAILED: %v", kind, err)
			res.Failed = append(res.Failed, fmt.Sprintf("%s: %v", kind, err))
		} else {
			logf("scenario %s ok: %d deliveries, order %d, %d restarts, %d loss epochs, recovery %dms after heal",
				kind, sr.Entry.Deliveries, sr.OrderLen, sr.Restarts, len(sr.Scenario.LossEpochs), sr.RecoveryMS)
		}
	}

	if b, err := json.MarshalIndent(res, "", "  "); err == nil {
		os.WriteFile(filepath.Join(opts.Dir, "matrix.json"), append(b, '\n'), 0o644)
	}
	if len(res.Failed) > 0 {
		return res, fmt.Errorf("liverun: %d/%d scenarios failed: %v", len(res.Failed), len(kinds), res.Failed)
	}
	return res, nil
}

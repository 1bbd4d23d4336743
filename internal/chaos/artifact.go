package chaos

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/failures"
	"repro/internal/obs"
)

// ArtifactVersion is bumped whenever the artifact wire format changes.
const ArtifactVersion = 1

// Artifact is the serialized form of a (usually minimized) failing run:
// everything needed to reproduce it byte for byte — the effective config
// and the exact fault event list. The only derived data it stores beyond
// the violation text are the diagnostic Metrics and Trace dumps; Config()
// ignores both, so a replay cannot drift from the original.
type Artifact struct {
	Version  int          `json:"version"`
	Campaign CampaignType `json:"campaign"`
	Seed     int64        `json:"seed"`
	N        int          `json:"n"`
	DeltaNS  int64        `json:"delta_ns"`
	WindowNS int64        `json:"window_ns"`
	Wire     bool         `json:"wire,omitempty"`
	// StorageLatencyNS is the effective stable-storage write latency λ
	// (defaults already resolved, so replays survive changes to the
	// torn-write campaign's default).
	StorageLatencyNS int64 `json:"storage_latency_ns,omitempty"`
	// RecoveryBoundNS is the explicit liveness deadline; always recorded
	// (never 0) so replays survive changes to the analytic default.
	RecoveryBoundNS int64 `json:"recovery_bound_ns"`
	// CheckpointBytes is the WAL compaction threshold (0, compaction off,
	// is also what an artifact without the field decodes to).
	CheckpointBytes int `json:"checkpoint_bytes,omitempty"`
	// Check and Detail describe the violation that produced the artifact.
	Check  string `json:"check,omitempty"`
	Detail string `json:"detail,omitempty"`
	// Events is the (minimized) fault schedule.
	Events failures.Schedule `json:"events"`
	// Metrics is the failing run's per-layer instrument snapshot
	// (diagnostic only; replays ignore it).
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
	// Trace is the failing run's ring-buffer event trace: the causal tail
	// of protocol-level incidents (view changes, token timeouts, faults,
	// crashes) leading up to the violation. TraceDropped counts earlier
	// events the ring overwrote. Diagnostic only; replays ignore both.
	Trace        []obs.TraceEvent `json:"trace,omitempty"`
	TraceDropped int64            `json:"trace_dropped,omitempty"`
}

// NewArtifact captures a run into an artifact.
func NewArtifact(r *Result) Artifact {
	a := Artifact{
		Version:          ArtifactVersion,
		Campaign:         r.Config.Campaign,
		Seed:             r.Config.Seed,
		N:                r.Config.N,
		DeltaNS:          int64(r.Config.Delta),
		WindowNS:         int64(r.Config.Window),
		Wire:             r.Config.Wire,
		StorageLatencyNS: int64(r.Config.StorageLatency),
		RecoveryBoundNS:  int64(r.Bound),
		CheckpointBytes:  r.Config.CheckpointBytes,
		Events:           r.Schedule,
	}
	if a.Events == nil {
		a.Events = failures.Schedule{}
	}
	if r.Violation != nil {
		a.Check = r.Violation.Check
		a.Detail = r.Violation.Detail
		// Dump the diagnostics only for failing runs: passing artifacts (if
		// ever written) stay small, and the trace is failure-scoped by
		// construction — whatever the ring holds is the causal tail.
		a.Metrics = r.Obs.Snapshot()
		a.Trace = r.Obs.Tracer().Events()
		a.TraceDropped = r.Obs.Tracer().Dropped()
	}
	return a
}

// Config reconstructs the replay configuration: the artifact's schedule is
// used verbatim (even when empty), never regenerated.
func (a Artifact) Config() Config {
	sched := a.Events
	if sched == nil {
		sched = failures.Schedule{}
	}
	return Config{
		Campaign:        a.Campaign,
		Seed:            a.Seed,
		N:               a.N,
		Delta:           time.Duration(a.DeltaNS),
		Wire:            a.Wire,
		StorageLatency:  time.Duration(a.StorageLatencyNS),
		Window:          time.Duration(a.WindowNS),
		RecoveryBound:   time.Duration(a.RecoveryBoundNS),
		CheckpointBytes: a.CheckpointBytes,
		Schedule:        sched,
	}
}

// Encode renders the artifact as stable, human-diffable JSON: the same
// artifact always encodes to identical bytes.
func (a Artifact) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// DecodeArtifact parses and validates an artifact.
func DecodeArtifact(data []byte) (Artifact, error) {
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return a, fmt.Errorf("chaos: bad artifact: %w", err)
	}
	if a.Version != ArtifactVersion {
		return a, fmt.Errorf("chaos: artifact version %d, want %d", a.Version, ArtifactVersion)
	}
	if a.N < 2 || a.DeltaNS <= 0 || a.WindowNS <= 0 {
		return a, fmt.Errorf("chaos: artifact has implausible parameters (n=%d δ=%dns window=%dns)",
			a.N, a.DeltaNS, a.WindowNS)
	}
	return a, nil
}

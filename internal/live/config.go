// Package live is the pgcsd daemon: the engine (one full processor stack
// paced against the wall clock over the TCP transport), the line-protocol
// client, the cluster config, the WAL file mirror, and per-node
// delivery-log merging with offline TO conformance checking. The
// process-level harness that injects faults into running daemons and
// judges them is internal/liverun; nothing here links it.
//
// The split of responsibilities with the rest of the repository: the
// protocol itself still runs on the deterministic simulator (the daemon
// advances it in step with the wall clock, exactly like
// pgcs.LiveCluster), internal/transport carries the packets, and the
// stack's WAL mirrors to a real file so a killed-and-restarted daemon
// rejoins through the ordinary amnesia-recovery path.
package live

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/types"
)

// NodeConfig is one processor's addressing.
type NodeConfig struct {
	ID int `json:"id"`
	// Addr is the peer-to-peer transport listen address.
	Addr string `json:"addr"`
	// ClientAddr is the client/control listen address (the loadgen and the
	// orchestrator speak the line protocol of client.go here).
	ClientAddr string `json:"client_addr"`
}

// Config is the JSON cluster configuration every daemon and the load
// generator share.
type Config struct {
	// DeltaMS is the paper's δ in milliseconds. Live timers derive from it
	// exactly as simulated ones do; it must generously cover real network
	// latency plus the daemon's pacer granularity (localhost: 5 is ample).
	DeltaMS int `json:"delta_ms"`
	// Seed seeds each daemon's simulator (per-node offset added). Live
	// runs are not deterministic — the wall clock and the kernel
	// scheduler see to that — but a recorded seed keeps the protocol's
	// internal randomness reproducible per node.
	Seed  int64        `json:"seed"`
	Nodes []NodeConfig `json:"nodes"`
	// P0 lists the processors in the initial view; empty means all.
	P0 []int `json:"p0,omitempty"`
}

// LoadConfig reads and validates a cluster config file.
func LoadConfig(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c Config
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("live: parse %s: %w", path, err)
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("live: %s: %w", path, err)
	}
	return &c, nil
}

// Validate checks internal consistency.
func (c *Config) Validate() error {
	if len(c.Nodes) == 0 {
		return fmt.Errorf("no nodes")
	}
	if c.DeltaMS <= 0 {
		return fmt.Errorf("delta_ms must be positive")
	}
	seen := map[int]bool{}
	for _, n := range c.Nodes {
		if seen[n.ID] {
			return fmt.Errorf("duplicate node id %d", n.ID)
		}
		seen[n.ID] = true
		if n.Addr == "" || n.ClientAddr == "" {
			return fmt.Errorf("node %d: addr and client_addr are required", n.ID)
		}
	}
	for _, p := range c.P0 {
		if !seen[p] {
			return fmt.Errorf("p0 member %d is not a node", p)
		}
	}
	return nil
}

// Delta returns δ as a duration.
func (c *Config) Delta() time.Duration { return time.Duration(c.DeltaMS) * time.Millisecond }

// Universe returns the processor set of all nodes.
func (c *Config) Universe() types.ProcSet {
	ids := make([]types.ProcID, len(c.Nodes))
	for i, n := range c.Nodes {
		ids[i] = types.ProcID(n.ID)
	}
	return types.NewProcSet(ids...)
}

// P0Set returns the initial view's membership (all nodes when P0 is
// empty).
func (c *Config) P0Set() types.ProcSet {
	if len(c.P0) == 0 {
		return c.Universe()
	}
	ids := make([]types.ProcID, len(c.P0))
	for i, p := range c.P0 {
		ids[i] = types.ProcID(p)
	}
	return types.NewProcSet(ids...)
}

// Node returns the config entry for p.
func (c *Config) Node(p types.ProcID) (NodeConfig, bool) {
	for _, n := range c.Nodes {
		if types.ProcID(n.ID) == p {
			return n, true
		}
	}
	return NodeConfig{}, false
}

// Addrs returns the transport address map the TCP transport consumes.
func (c *Config) Addrs() map[types.ProcID]string {
	m := make(map[types.ProcID]string, len(c.Nodes))
	for _, n := range c.Nodes {
		m[types.ProcID(n.ID)] = n.Addr
	}
	return m
}

package liverun

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/failures"
	"repro/internal/live"
	"repro/internal/props"
	"repro/internal/types"
)

// cluster owns the daemon processes of one live run: spawn parameters,
// per-node restart counters, and the trace files every incarnation
// wrote, in boot order. Every respawn goes through it, so fault
// injectors always restart a node with identical parameters (same WAL
// file, next trace file).
type cluster struct {
	dir     string
	pgcsd   string
	cfg     *live.Config
	cfgPath string
	// checkpointBytes > 0 passes -checkpoint-bytes to every daemon.
	checkpointBytes int
	logf            func(string, ...any)

	mu       sync.Mutex
	procs    map[int]*Proc
	restarts map[int]int
	traces   map[int][]string
}

// newCluster writes cluster.json into dir and returns the (not yet
// spawned) cluster.
func newCluster(dir, pgcsd string, cfg *live.Config, checkpointBytes int, logf func(string, ...any)) (*cluster, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cfgPath := filepath.Join(dir, "cluster.json")
	cfgBytes, _ := json.MarshalIndent(cfg, "", "  ")
	if err := os.WriteFile(cfgPath, cfgBytes, 0o644); err != nil {
		return nil, err
	}
	return &cluster{
		dir: dir, pgcsd: pgcsd, cfg: cfg, cfgPath: cfgPath,
		checkpointBytes: checkpointBytes, logf: logf,
		procs:    make(map[int]*Proc, len(cfg.Nodes)),
		restarts: make(map[int]int, len(cfg.Nodes)),
		traces:   make(map[int][]string, len(cfg.Nodes)),
	}, nil
}

func (cl *cluster) walPath(id int) string {
	return filepath.Join(cl.dir, fmt.Sprintf("node%d.wal", id))
}

// spawn boots node id's next incarnation (same WAL file, fresh trace
// file named after the restart counter).
func (cl *cluster) spawn(id int) error {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	r := cl.restarts[id]
	trace := filepath.Join(cl.dir, fmt.Sprintf("node%d.r%d.jsonl", id, r))
	stdout, err := os.Create(filepath.Join(cl.dir, fmt.Sprintf("node%d.r%d.log", id, r)))
	if err != nil {
		return err
	}
	args := []string{
		"-config", cl.cfgPath,
		"-id", fmt.Sprint(id),
		"-wal", cl.walPath(id),
		"-trace", trace,
		"-metrics", filepath.Join(cl.dir, fmt.Sprintf("node%d.r%d.metrics.json", id, r)),
	}
	if cl.checkpointBytes > 0 {
		args = append(args, "-checkpoint-bytes", fmt.Sprint(cl.checkpointBytes))
	}
	cmd := exec.Command(cl.pgcsd, args...)
	cmd.Stdout = stdout
	cmd.Stderr = stdout
	err = cmd.Start()
	stdout.Close() // the child holds its own copy; exec never closes ours
	if err != nil {
		return err
	}
	cl.procs[id] = &Proc{ID: types.ProcID(id), Cmd: cmd}
	cl.traces[id] = append(cl.traces[id], trace)
	cl.restarts[id] = r + 1
	cl.logf("node %d up (incarnation %d, pid %d)", id, r, cmd.Process.Pid)
	return nil
}

func (cl *cluster) spawnAll() error {
	for i := range cl.cfg.Nodes {
		if err := cl.spawn(i); err != nil {
			return fmt.Errorf("liverun: spawn node %d: %w", i, err)
		}
	}
	return nil
}

// readyAll confirms every daemon's event loop answers a ping.
func (cl *cluster) readyAll() error {
	for _, n := range cl.cfg.Nodes {
		c, err := live.DialClient(n.ClientAddr, 30*time.Second)
		if err != nil {
			return fmt.Errorf("liverun: node %d never came up: %w", n.ID, err)
		}
		c.Close()
	}
	return nil
}

func (cl *cluster) proc(id int) *Proc {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return cl.procs[id]
}

func (cl *cluster) traceFiles(id int) []string {
	cl.mu.Lock()
	defer cl.mu.Unlock()
	return append([]string(nil), cl.traces[id]...)
}

func (cl *cluster) clientAddrs() []string {
	addrs := make([]string, len(cl.cfg.Nodes))
	for i, n := range cl.cfg.Nodes {
		addrs[i] = n.ClientAddr
	}
	return addrs
}

// stopAll asks every daemon to stop gracefully (SIGCONT first: a stopped
// process can't process STOP) and reaps them all, escalating to SIGKILL
// on the deadline. The returned errors name nodes whose exit was not
// clean — their final trace lines may be torn, which the merge reader
// tolerates but the caller should surface.
func (cl *cluster) stopAll(timeout time.Duration) []error {
	var errs []error
	for _, n := range cl.cfg.Nodes {
		if p := cl.proc(n.ID); p != nil && !p.Exited() {
			p.Apply(failures.Good) // no-op unless SIGSTOPped
			cl.control(n.ID, (*live.Client).Stop)
		}
	}
	cl.mu.Lock()
	ps := make([]*Proc, 0, len(cl.procs))
	for _, p := range cl.procs {
		ps = append(ps, p)
	}
	cl.mu.Unlock()
	for _, p := range ps {
		if err := p.WaitExit(timeout); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

// killAll is the deferred cleanup: SIGKILL and reap whatever is left.
func (cl *cluster) killAll() {
	cl.mu.Lock()
	ps := make([]*Proc, 0, len(cl.procs))
	for _, p := range cl.procs {
		ps = append(ps, p)
	}
	cl.mu.Unlock()
	for _, p := range ps {
		if !p.Exited() {
			p.Kill()
		}
	}
}

// mergedLogs reads every node's trace files into per-node logs.
func (cl *cluster) mergedLogs() (map[types.ProcID]*props.Log, error) {
	logs := make(map[types.ProcID]*props.Log, len(cl.cfg.Nodes))
	for i := range cl.cfg.Nodes {
		lg, err := live.ReadTraceFiles(cl.traceFiles(i)...)
		if err != nil {
			return nil, fmt.Errorf("liverun: node %d trace: %w", i, err)
		}
		logs[types.ProcID(i)] = lg
	}
	return logs, nil
}

// makeConfig lays out N nodes on consecutive localhost ports.
func makeConfig(n int, delta time.Duration, seed int64, basePort int) *live.Config {
	cfg := &live.Config{DeltaMS: int(delta / time.Millisecond), Seed: seed}
	if cfg.DeltaMS <= 0 {
		cfg.DeltaMS = 5
	}
	for i := 0; i < n; i++ {
		cfg.Nodes = append(cfg.Nodes, live.NodeConfig{
			ID:         i,
			Addr:       fmt.Sprintf("127.0.0.1:%d", basePort+2*i),
			ClientAddr: fmt.Sprintf("127.0.0.1:%d", basePort+2*i+1),
		})
	}
	return cfg
}

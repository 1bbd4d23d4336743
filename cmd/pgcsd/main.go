// Command pgcsd runs one processor of the partitionable group
// communication service as a real daemon: the full stack (VS
// implementation, VStoTO, write-ahead recovery log) over the TCP
// transport, paced against the wall clock.
//
//	pgcsd -config cluster.json -id 0 -wal node0.wal -trace node0.r0.jsonl
//
// The WAL file persists across restarts: a daemon booted over a
// non-empty WAL rejoins through the amnesia-recovery path, one
// incarnation up. Clients speak the line protocol on the node's
// client_addr (S <value> submits, answered BUSY <value> past the
// -max-pending backpressure bound; D <from> <value> streams deliveries;
// STATUS reports ST <OK|STALLED> <pending> <delivered>;
// PING/LPAUSE/LRESUME/METRICS/STOP control). SIGINT/SIGTERM shut down
// gracefully, draining the transport and writing the metrics snapshot.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/live"
	"repro/internal/types"
)

func main() {
	var (
		configPath  = flag.String("config", "", "cluster config JSON (required)")
		id          = flag.Int("id", -1, "this node's id (required)")
		walPath     = flag.String("wal", "", "write-ahead-log file (required; persists across restarts)")
		tracePath   = flag.String("trace", "", "JSONL trace output for this incarnation (required)")
		metricsPath = flag.String("metrics", "", "metrics snapshot JSON written on shutdown")
		ckptBytes   = flag.Int("checkpoint-bytes", 0, "WAL snapshot/compaction threshold in bytes (0 disables)")
		maxPending  = flag.Int("max-pending", 4096, "accepted-but-undelivered submission bound; past it S is answered BUSY (0 disables)")
		tickMS      = flag.Int("tick", 2, "pacer granularity in milliseconds")
		quiet       = flag.Bool("quiet", false, "suppress progress logging")
	)
	flag.Parse()
	if *configPath == "" || *id < 0 || *walPath == "" || *tracePath == "" {
		flag.Usage()
		os.Exit(2)
	}

	cfg, err := live.LoadConfig(*configPath)
	if err != nil {
		log.Fatal(err)
	}
	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	eng, err := live.StartEngine(live.EngineOptions{
		Config:          cfg,
		Self:            types.ProcID(*id),
		WALPath:         *walPath,
		TracePath:       *tracePath,
		MetricsPath:     *metricsPath,
		CheckpointBytes: *ckptBytes,
		MaxPending:      *maxPending,
		Tick:            durationMS(*tickMS),
		Logf:            logf,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("READY %d %s\n", *id, eng.ClientAddr())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sigc:
		logf("node %d: %v, shutting down", *id, s)
		eng.Close()
	case <-eng.Stopped:
	}
	<-eng.Stopped
}

func durationMS(ms int) (d time.Duration) { return time.Duration(ms) * time.Millisecond }

package main

import (
	"runtime"
	"time"
)

// Benchmark-timed layer metrics: fixed inputs pushed through one layer's
// public entry points, timed here. They do not depend on the workload, so
// every traced run reports them and they track a layer's unit cost even
// when the end-to-end metric is bound by timers.

// codecLayer times AppendEncode + Decode over the fixed token/summary/
// labeled-value mix and counts its allocations.
func codecLayer() (nsPerMsg, allocsPerMsg float64, err error) {
	mix := codecMix()
	var buf []byte
	const rounds = 2000
	for _, m := range mix { // warm the codec's pools
		if buf, err = codecRoundtrip(buf, m); err != nil {
			return 0, 0, err
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		for _, m := range mix {
			if buf, err = codecRoundtrip(buf, m); err != nil {
				return 0, 0, err
			}
		}
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	n := float64(rounds * len(mix))
	return float64(el.Nanoseconds()) / n, float64(ms1.Mallocs-ms0.Mallocs) / n, nil
}

// walLayer times WAL.Bcast/Label/Deliver appends over storage.Stable under
// group commit and returns ns per record.
func walLayer() float64 {
	payload := value(padValue("wal", liveValueSize))
	walBench(512, payload) // warm
	const n = 20000
	t0 := time.Now()
	records := walBench(n, payload)
	return float64(time.Since(t0).Nanoseconds()) / float64(records)
}

package live_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/liverun"
	"repro/internal/sim"
)

// sampleRow is one liverun.DeliverySample in shorthand: a nil gen means one
// connection generation throughout.
type sampleRow struct {
	at  int64
	d   []int64
	gen []int
}

func mkSamples(rows []sampleRow) []liverun.DeliverySample {
	out := make([]liverun.DeliverySample, len(rows))
	for i, r := range rows {
		gen := r.gen
		if gen == nil {
			gen = make([]int, len(r.d))
		}
		out[i] = liverun.DeliverySample{AtMS: r.at, Delivered: r.d, Gen: gen}
	}
	return out
}

func epochMS(startMS, endMS int64) chaos.Epoch {
	return chaos.Epoch{Start: sim.Time(startMS * int64(time.Millisecond)), End: sim.Time(endMS * int64(time.Millisecond))}
}

func TestCheckPrimaryLoss(t *testing.T) {
	epochs := []chaos.Epoch{epochMS(1000, 3000)}
	const grace = 500 * time.Millisecond // guarded interval: (1500, 3000]ms

	cases := []struct {
		name    string
		samples []sampleRow
		epochs  []chaos.Epoch
		wantErr string // substring; "" = pass
	}{
		{
			name: "flatline passes",
			samples: []sampleRow{
				{at: 800, d: []int64{10, 12, 11}},
				{at: 1800, d: []int64{10, 12, -1}},
				{at: 2000, d: []int64{10, 12, -1}},
			},
			epochs: epochs,
		},
		{
			name: "order growth past the high-water fails",
			samples: []sampleRow{
				{at: 800, d: []int64{10, 12, 11}},
				{at: 1800, d: []int64{10, 13, -1}},
			},
			epochs:  epochs,
			wantErr: "past the pre-epoch high-water 12",
		},
		{
			name: "catch-up release below the high-water passes",
			// Node 0 drains its lagging release pipeline up to the longest
			// pre-epoch prefix (12) during the outage — the paper permits
			// releasing the established order, only extending it needs a
			// primary. This is the split-rejoin shape that must not trip.
			samples: []sampleRow{
				{at: 800, d: []int64{5, 12, 11}},
				{at: 1800, d: []int64{8, 12, -1}},
				{at: 2000, d: []int64{12, 12, -1}},
			},
			epochs: epochs,
		},
		{
			name: "growth inside the grace prefix raises the baseline",
			samples: []sampleRow{
				{at: 1100, d: []int64{10, 12, 9}},
				{at: 1400, d: []int64{10, 15, 9}}, // in-flight confirms land pre-guard
				{at: 1700, d: []int64{10, 15, 9}},
				{at: 1900, d: []int64{12, 15, 9}}, // catch-up to 15 stays legal
			},
			epochs: epochs,
		},
		{
			name: "growth after epoch end passes",
			samples: []sampleRow{
				{at: 800, d: []int64{10, 12, 11}},
				{at: 1600, d: []int64{10, 12, -1}},
				{at: 1900, d: []int64{10, 12, -1}},
				{at: 3300, d: []int64{14, 16, 8}}, // recovery, outside the epoch
			},
			epochs: epochs,
		},
		{
			name: "restart re-report below high-water passes across gens",
			samples: []sampleRow{
				{at: 800, d: []int64{10, 12, 11}, gen: []int{1, 1, 1}},
				{at: 1600, d: []int64{10, 12, -1}, gen: []int{1, 1, 1}},
				{at: 1800, d: []int64{10, 12, 7}, gen: []int{1, 1, 2}}, // replayed prefix
				{at: 2000, d: []int64{10, 12, 7}, gen: []int{1, 1, 2}},
			},
			epochs: epochs,
		},
		{
			name: "restarted node growing past high-water fails",
			samples: []sampleRow{
				{at: 800, d: []int64{10, 12, 11}, gen: []int{1, 1, 1}},
				{at: 1800, d: []int64{10, 12, 7}, gen: []int{1, 1, 2}},
				{at: 2000, d: []int64{10, 12, 14}, gen: []int{1, 1, 2}},
			},
			epochs:  epochs,
			wantErr: "past the pre-epoch high-water 12",
		},
		{
			name: "no guarded sample is inconclusive",
			samples: []sampleRow{
				{at: 200, d: []int64{1, 2, 3}},
				{at: 400, d: []int64{2, 3, 4}},
				{at: 3500, d: []int64{5, 6, 7}},
			},
			epochs:  epochs,
			wantErr: "inconclusive",
		},
		{
			name: "no epochs is an error",
			samples: []sampleRow{
				{at: 1600, d: []int64{10}},
				{at: 1800, d: []int64{10}},
			},
			epochs:  nil,
			wantErr: "no loss epochs",
		},
		{
			name: "unreachable cluster never violates",
			samples: []sampleRow{
				{at: 800, d: []int64{10, 12, 11}},
				{at: 1600, d: []int64{-1, -1, -1}},
				{at: 1800, d: []int64{-1, -1, -1}},
			},
			epochs: epochs,
		},
		{
			name: "second epoch gets its own baseline",
			// Ordering between the epochs (the healed interlude) raises the
			// high-water for the second epoch but not the first.
			samples: []sampleRow{
				{at: 800, d: []int64{10, 12, 11}},
				{at: 1800, d: []int64{12, 12, 11}},
				{at: 3500, d: []int64{40, 41, 39}}, // healed: order grows freely
				{at: 4800, d: []int64{41, 41, 41}},
				{at: 5000, d: []int64{41, 41, 41}},
			},
			epochs: []chaos.Epoch{epochMS(1000, 3000), epochMS(4000, 5500)},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := liverun.CheckPrimaryLoss(mkSamples(tc.samples), tc.epochs, grace)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("want pass, got %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("want error containing %q, got %v", tc.wantErr, err)
			}
		})
	}
}

func TestCheckBoundedRecovery(t *testing.T) {
	const heal, bound = 5000, 2000

	cases := []struct {
		name       string
		samples    []sampleRow
		wantResume int64
		wantErr    string
	}{
		{
			name: "immediate growth passes",
			samples: []sampleRow{
				{at: 4900, d: []int64{10, 10}},
				{at: 5200, d: []int64{11, 10}},
			},
			wantResume: 200,
		},
		{
			name: "growth exactly at bound passes",
			samples: []sampleRow{
				{at: 4900, d: []int64{10, 10}},
				{at: 7000, d: []int64{10, 12}},
			},
			wantResume: 2000,
		},
		{
			name: "growth past bound fails",
			samples: []sampleRow{
				{at: 4900, d: []int64{10, 10}},
				{at: 7000, d: []int64{10, 10}},
				{at: 7400, d: []int64{11, 10}},
			},
			wantResume: 2400,
			wantErr:    "bound 2000ms",
		},
		{
			name: "never grows fails",
			samples: []sampleRow{
				{at: 4900, d: []int64{10, 10}},
				{at: 5600, d: []int64{10, 10}},
				{at: 6000, d: []int64{10, 10}},
			},
			wantResume: -1,
			wantErr:    "never grew",
		},
		{
			name: "catch-up to the pre-heal high-water is not recovery",
			// Node 1 drains its backlog up to node 0's pre-heal prefix; the
			// order itself never grows.
			samples: []sampleRow{
				{at: 4900, d: []int64{10, 4}},
				{at: 5600, d: []int64{10, 8}},
				{at: 6000, d: []int64{10, 10}},
			},
			wantResume: -1,
			wantErr:    "never grew",
		},
		{
			name: "replayed prefix re-report is not recovery",
			samples: []sampleRow{
				{at: 4900, d: []int64{10, -1}, gen: []int{1, 1}},
				{at: 5600, d: []int64{10, 8}, gen: []int{1, 2}}, // WAL replay re-report
				{at: 6000, d: []int64{10, 8}, gen: []int{1, 2}},
			},
			wantResume: -1,
			wantErr:    "never grew",
		},
		{
			name: "pre-heal growth only raises the baseline",
			samples: []sampleRow{
				{at: 4000, d: []int64{5, 5}},
				{at: 4400, d: []int64{9, 9}}, // before the final heal: not recovery
				{at: 5400, d: []int64{9, 9}},
				{at: 5800, d: []int64{10, 9}}, // first growth past 9 after the heal
			},
			wantResume: 800,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resume, err := liverun.CheckBoundedRecovery(mkSamples(tc.samples), heal, bound)
			if resume != tc.wantResume {
				t.Errorf("resume = %d, want %d", resume, tc.wantResume)
			}
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("want pass, got %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("want error containing %q, got %v", tc.wantErr, err)
			}
		})
	}
}

package main

import (
	"strings"
	"testing"
	"time"

	"repro/internal/check"
	"repro/internal/props"
	"repro/internal/sim"
	"repro/internal/types"
)

func TestRenderMarksAndBuckets(t *testing.T) {
	log := &props.Log{}
	log.SetInitial(0, types.InitialView(types.RangeProcSet(2)))
	at := func(ms int) sim.Time { return sim.Time(time.Duration(ms) * time.Millisecond) }
	log.Append(props.Event{T: at(1), Kind: props.TOBcast, P: 0, Value: "a", ValueSeq: 1})
	log.Append(props.Event{T: at(2), Kind: props.VSGpsnd, P: 0, Msg: check.MsgID{Sender: 0, Seq: 1}})
	log.Append(props.Event{T: at(12), Kind: props.VSGprcv, P: 1, From: 0, Msg: check.MsgID{Sender: 0, Seq: 1}})
	log.Append(props.Event{T: at(25), Kind: props.VSSafe, P: 1, From: 0, Msg: check.MsgID{Sender: 0, Seq: 1}})
	log.Append(props.Event{T: at(26), Kind: props.TOBrcv, P: 1, From: 0, Value: "a", ValueSeq: 1})
	log.Append(props.Event{T: at(31), Kind: props.VSNewview, P: 1, View: types.View{
		ID: types.ViewID{Epoch: 2, Proc: 1}, Set: types.NewProcSet(0, 1),
	}})

	out := render(log, 10*time.Millisecond)
	for _, want := range []string{"p0", "p1", "Bs", "r", "✓D", "∇g2.1|2", "legend"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered timeline missing %q:\n%s", want, out)
		}
	}
	// Four buckets with content (0ms, 10ms, 20ms, 30ms) plus header+legend.
	lines := strings.Count(out, "\n")
	if lines < 6 {
		t.Errorf("timeline too short (%d lines):\n%s", lines, out)
	}
}

func TestRenderEmptyLog(t *testing.T) {
	out := render(&props.Log{}, time.Millisecond)
	if !strings.Contains(out, "legend") {
		t.Errorf("empty render = %q", out)
	}
}

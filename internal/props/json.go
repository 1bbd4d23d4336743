package props

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"repro/internal/check"
	"repro/internal/sim"
	"repro/internal/types"
)

// eventJSON is the wire form of a timed trace line, used by tosim (write)
// and vscheck (read). One JSON object per line; "initial" lines declare
// initial-view membership and precede all events. Lines are written by
// appendJSON, which must produce what encoding/json would for this type.
type eventJSON struct {
	Kind      string `json:"kind"`
	TNanos    int64  `json:"t_ns,omitempty"`
	P         int    `json:"p"`
	From      int    `json:"from,omitempty"`
	Value     string `json:"value,omitempty"`
	ValueSeq  int    `json:"value_seq,omitempty"`
	MsgSender int    `json:"msg_sender,omitempty"`
	MsgSeq    int    `json:"msg_seq,omitempty"`
	ViewEpoch int64  `json:"view_epoch,omitempty"`
	ViewProc  int    `json:"view_proc,omitempty"`
	ViewSet   []int  `json:"view_set,omitempty"`
}

func kindString(k Kind) string {
	switch k {
	case TOBcast:
		return "bcast"
	case TOBrcv:
		return "brcv"
	case VSGpsnd:
		return "gpsnd"
	case VSGprcv:
		return "gprcv"
	case VSSafe:
		return "safe"
	case VSNewview:
		return "newview"
	}
	return "?"
}

func kindFromString(s string) (Kind, error) {
	switch s {
	case "bcast":
		return TOBcast, nil
	case "brcv":
		return TOBrcv, nil
	case "gpsnd":
		return VSGpsnd, nil
	case "gprcv":
		return VSGprcv, nil
	case "safe":
		return VSSafe, nil
	case "newview":
		return VSNewview, nil
	default:
		return 0, fmt.Errorf("props: unknown event kind %q", s)
	}
}

// AppendInitialJSONL writes one "initial" JSONL line declaring that p
// starts in view v.
func AppendInitialJSONL(w io.Writer, p types.ProcID, v types.View) error {
	set := make([]int, 0, v.Set.Size())
	for _, m := range v.Set.Members() {
		set = append(set, int(m))
	}
	return writeJSONL(w, &eventJSON{
		Kind: "initial", P: int(p),
		ViewEpoch: v.ID.Epoch, ViewProc: int(v.ID.Proc), ViewSet: set,
	})
}

// AppendEventJSONL writes one event as a JSONL line.
func AppendEventJSONL(w io.Writer, e Event) error {
	j := eventJSON{
		Kind:   kindString(e.Kind),
		TNanos: int64(e.T),
		P:      int(e.P),
		From:   int(e.From),
	}
	switch e.Kind {
	case TOBcast, TOBrcv:
		j.Value = string(e.Value)
		j.ValueSeq = e.ValueSeq
	case VSGpsnd, VSGprcv, VSSafe:
		j.MsgSender = int(e.Msg.Sender)
		j.MsgSeq = e.Msg.Seq
	case VSNewview:
		j.ViewEpoch = e.View.ID.Epoch
		j.ViewProc = int(e.View.ID.Proc)
		for _, m := range e.View.Set.Members() {
			j.ViewSet = append(j.ViewSet, int(m))
		}
	}
	return writeJSONL(w, &j)
}

// writeJSONL writes j as one JSON line. A *bufio.Writer (the trace sinks')
// lends its free buffer space, so the line is built in place.
func writeJSONL(w io.Writer, j *eventJSON) error {
	var b []byte
	if bw, ok := w.(*bufio.Writer); ok {
		b = bw.AvailableBuffer()
	}
	_, err := w.Write(j.appendJSON(b))
	return err
}

// appendJSON appends j and a newline to b, byte for byte as a
// json.Encoder encodes it: fields in declaration order, zero values under
// omitempty left out, strings HTML-escaped.
func (j *eventJSON) appendJSON(b []byte) []byte {
	b = append(b, `{"kind":`...)
	b = appendJSONString(b, j.Kind)
	b = appendIntField(b, `,"t_ns":`, j.TNanos)
	b = append(b, `,"p":`...)
	b = strconv.AppendInt(b, int64(j.P), 10)
	b = appendIntField(b, `,"from":`, int64(j.From))
	if j.Value != "" {
		b = append(b, `,"value":`...)
		b = appendJSONString(b, j.Value)
	}
	b = appendIntField(b, `,"value_seq":`, int64(j.ValueSeq))
	b = appendIntField(b, `,"msg_sender":`, int64(j.MsgSender))
	b = appendIntField(b, `,"msg_seq":`, int64(j.MsgSeq))
	b = appendIntField(b, `,"view_epoch":`, j.ViewEpoch)
	b = appendIntField(b, `,"view_proc":`, int64(j.ViewProc))
	if len(j.ViewSet) > 0 {
		b = append(b, `,"view_set":[`...)
		for i, m := range j.ViewSet {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(m), 10)
		}
		b = append(b, ']')
	}
	return append(b, "}\n"...)
}

// appendIntField appends an omitempty integer field: key (with its leading
// comma) and v, or nothing when v is 0.
func appendIntField(b []byte, key string, v int64) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendInt(append(b, key...), v, 10)
}

// appendJSONString appends s quoted. Printable ASCII other than the
// quote, the backslash and the HTML-escaped <, > and & is copied as is;
// any other string takes encoding/json's path, which escapes it.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// WriteJSONL streams the log as JSON lines.
func (l *Log) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for p, v := range l.Initial {
		if err := AppendInitialJSONL(bw, p, v); err != nil {
			return err
		}
	}
	for _, e := range l.Events {
		if err := AppendEventJSONL(bw, e); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a JSON-lines trace back into a Log.
func ReadJSONL(r io.Reader) (*Log, error) {
	log := &Log{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var j eventJSON
		if err := json.Unmarshal(line, &j); err != nil {
			return nil, fmt.Errorf("props: line %d: %w", lineNo, err)
		}
		if j.Kind == "initial" {
			set := make([]types.ProcID, len(j.ViewSet))
			for i, m := range j.ViewSet {
				set[i] = types.ProcID(m)
			}
			log.SetInitial(types.ProcID(j.P), types.View{
				ID:  types.ViewID{Epoch: j.ViewEpoch, Proc: types.ProcID(j.ViewProc)},
				Set: types.NewProcSet(set...),
			})
			continue
		}
		kind, err := kindFromString(j.Kind)
		if err != nil {
			return nil, fmt.Errorf("props: line %d: %w", lineNo, err)
		}
		e := Event{
			T:    sim.Time(j.TNanos),
			Kind: kind,
			P:    types.ProcID(j.P),
			From: types.ProcID(j.From),
		}
		switch kind {
		case TOBcast, TOBrcv:
			e.Value = types.Value(j.Value)
			e.ValueSeq = j.ValueSeq
		case VSGpsnd, VSGprcv, VSSafe:
			e.Msg = check.MsgID{Sender: types.ProcID(j.MsgSender), Seq: j.MsgSeq}
		case VSNewview:
			set := make([]types.ProcID, len(j.ViewSet))
			for i, m := range j.ViewSet {
				set[i] = types.ProcID(m)
			}
			e.View = types.View{
				ID:  types.ViewID{Epoch: j.ViewEpoch, Proc: types.ProcID(j.ViewProc)},
				Set: types.NewProcSet(set...),
			}
		}
		log.Append(e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return log, nil
}

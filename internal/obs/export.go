package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// traceEvent is one entry of the Chrome trace-event format's
// "traceEvents" array (the JSON Object Format that Perfetto and
// chrome://tracing accept). Field order here fixes the key order of
// the exported bytes; args maps are sorted by encoding/json.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// ExportJSON exports every collected span as Chrome trace-event JSON.
// Spans become "X" (complete) events with ts/dur in microseconds of
// simulated time; process and track names become "M" metadata events.
// The output is canonical: same spans, same bytes, regardless of how
// goroutines interleaved while recording.
//
// Compile spans carry a modeled tuning duration but no meaningful
// start (tuning happens off the serving clock), so each compile track
// is laid out sequentially — span k starts where span k-1 ended —
// which renders as a packed tuning timeline in Perfetto.
func (t *Tracer) ExportJSON() []byte {
	spans := t.sorted()
	t.mu.Lock()
	procs := append([]string(nil), t.procs...)
	t.mu.Unlock()

	// Assign tids per (proc, track) in first-appearance order over the
	// canonical span sequence; tid 0 is reserved so Perfetto doesn't
	// merge a track with the process summary row.
	tids := make(map[trackID]int)
	var order []trackID
	for _, sp := range spans {
		if id := sp.track(); tids[id] == 0 {
			order = append(order, id)
			tids[id] = len(order)
		}
	}

	var buf bytes.Buffer
	buf.WriteString("{\"traceEvents\":[\n")
	first := true
	write := func(ev traceEvent) {
		b, err := json.Marshal(&ev)
		if err != nil {
			// Every exported value is a string, bool, int or finite float.
			panic(fmt.Sprintf("obs: export: %v", err))
		}
		if !first {
			buf.WriteString(",\n")
		}
		first = false
		buf.Write(b)
	}
	for pid := 1; pid <= len(procs); pid++ {
		write(traceEvent{Name: "process_name", Ph: "M", PID: pid, Args: map[string]any{"name": procs[pid-1]}})
	}
	for i, id := range order {
		write(traceEvent{Name: "thread_name", Ph: "M", PID: id.proc, TID: i + 1, Args: map[string]any{"name": id.String()}})
	}

	// Sequential layout offsets for compile tracks.
	offsets := make(map[trackID]float64)
	for _, sp := range spans {
		id := sp.track()
		ts := sp.Start
		if sp.Cat == CatCompile {
			ts = offsets[id]
			offsets[id] += sp.Dur
		}
		dur := sp.Dur * 1e6
		ev := traceEvent{Name: sp.Name, Cat: sp.Cat, Ph: "X", TS: ts * 1e6, Dur: &dur, PID: sp.Proc, TID: tids[id]}
		keys := sp.keys()
		if len(keys) > 0 || sp.Req != 0 {
			ev.Args = make(map[string]any, len(keys)+1)
			if sp.Req != 0 {
				ev.Args["req"] = sp.Req
			}
			for _, k := range keys {
				if v := argOf[k](sp); v != nil {
					ev.Args[k] = v
				}
			}
		}
		write(ev)
	}
	buf.WriteString("\n],\"displayTimeUnit\":\"ms\"}\n")
	return buf.Bytes()
}

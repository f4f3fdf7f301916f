package obs

import (
	"bytes"
	"encoding/json"
	"sort"
)

// chrometrace.go converts a recorded TraceRecord into Chrome
// trace-event JSON (the format Perfetto and chrome://tracing load):
// one "X" complete event per span with microsecond timestamps, plus
// "i" instant events for span annotations. Spans are laid out on
// synthetic threads ("lanes") by a greedy sweep that keeps nested
// spans on their parent's lane and pushes concurrent siblings (par
// workers) onto their own, so the tree reads as a flame chart.

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

// ChromeTrace renders the trace as Chrome trace-event JSON. The
// result always parses as a JSON object with a traceEvents array, even
// for an empty trace.
func (tr *TraceRecord) ChromeTrace() ([]byte, error) {
	events := make([]chromeEvent, 0, 2+2*len(tr.Spans))
	events = append(events, chromeEvent{
		Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]any{"name": "trace " + tr.ID + " · " + tr.Root},
	})

	// Lane assignment: spans sorted by start (the stored order), each
	// placed on its parent's lane when the parent isn't running a
	// sibling there, else the first lane free at its start time.
	laneEnd := []int64{}       // per lane, the end offset of its last span
	laneOf := map[uint32]int{} // span id -> lane
	childAt := map[int]int64{} // lane -> end of the last child placed there
	place := func(s *SpanRecord) int {
		end := s.StartNs + s.DurNs
		if pl, ok := laneOf[s.ParentID]; ok && childAt[pl] <= s.StartNs {
			childAt[pl] = end
			if laneEnd[pl] < end {
				laneEnd[pl] = end
			}
			return pl
		}
		for l := range laneEnd {
			if laneEnd[l] <= s.StartNs {
				laneEnd[l] = end
				childAt[l] = end
				return l
			}
		}
		laneEnd = append(laneEnd, end)
		l := len(laneEnd) - 1
		childAt[l] = end
		return l
	}

	for i := range tr.Spans {
		s := &tr.Spans[i]
		lane := place(s)
		laneOf[s.SpanID] = lane
		args := map[string]any{
			"spanId":   s.SpanID,
			"parentId": s.ParentID,
		}
		if s.Items > 0 {
			args["items"] = s.Items
		}
		if s.Workers > 0 {
			args["workers"] = s.Workers
		}
		for _, a := range s.Attrs {
			args[a.Key] = a.Value
		}
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.StartNs) / 1e3,
			Dur: float64(s.DurNs) / 1e3,
			Pid: 1, Tid: lane + 1,
			Args: args,
		})
		for _, ev := range s.Events {
			events = append(events, chromeEvent{
				Name: ev.Name, Ph: "i", S: "t",
				Ts:  float64(s.StartNs+ev.AtNs) / 1e3,
				Pid: 1, Tid: lane + 1,
			})
		}
	}

	// Thread-name metadata, one per lane used.
	lanes := len(laneEnd)
	names := make([]chromeEvent, 0, lanes)
	for l := 0; l < lanes; l++ {
		name := "main"
		if l > 0 {
			name = "worker"
		}
		names = append(names, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: l + 1,
			Args: map[string]any{"name": name},
		})
	}
	events = append(events, names...)
	sort.SliceStable(events, func(i, j int) bool {
		// Metadata first, then by timestamp — viewers tolerate any
		// order, but a sorted stream diffs and tests cleanly.
		mi, mj := events[i].Ph == "M", events[j].Ph == "M"
		if mi != mj {
			return mi
		}
		return events[i].Ts < events[j].Ts
	})

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(chromeFile{DisplayTimeUnit: "ms", TraceEvents: events}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

package trace

import (
	"encoding/json"
	"io"
)

// chromeEvent is one complete ("ph":"X") event in the Chrome trace-event
// JSON format, loadable in Perfetto or chrome://tracing. Timestamps and
// durations are microseconds; tid carries the span's position in the tree
// (spans of one trace share a pid).
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   int64             `json:"ts"`
	Dur  int64             `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChrome renders the traces as Chrome trace-event JSON. Each trace
// becomes one pid (1-based, in slice order); within a trace each span gets a
// tid equal to its depth in the span tree so lanes nest visually, and the
// span's attributes and error land in args. Timestamps are offset
// from the earliest span start across all traces, so the export is stable
// for fixed inputs.
func WriteChrome(w io.Writer, traces []*Trace) error {
	var events []chromeEvent
	var epoch int64
	first := true
	for _, t := range traces {
		for i := range t.Spans {
			us := t.Spans[i].Start.UnixMicro()
			if first || us < epoch {
				epoch, first = us, false
			}
		}
	}
	for pid, t := range traces {
		depth := spanDepths(t)
		for i := range t.Spans {
			sp := &t.Spans[i]
			args := map[string]string{"trace_id": t.ID.String(), "span_id": sp.SpanID.String()}
			if !sp.Parent.IsZero() {
				args["parent_id"] = sp.Parent.String()
			}
			for _, a := range sp.Attrs {
				args[a.Key] = a.Value
			}
			if sp.Err != "" {
				args["error"] = sp.Err
			}
			events = append(events, chromeEvent{
				Name: sp.Name,
				Ph:   "X",
				Ts:   sp.Start.UnixMicro() - epoch,
				Dur:  sp.Duration.Microseconds(),
				Pid:  pid + 1,
				Tid:  depth[sp.SpanID],
				Args: args,
			})
		}
	}
	if events == nil {
		events = []chromeEvent{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(chromeFile{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// spanDepths computes each span's depth under the trace root (root = 0); a
// span whose parent is unrecorded (the root, or post-cap drops) sits at 0.
func spanDepths(t *Trace) map[SpanID]int {
	parent := make(map[SpanID]SpanID, len(t.Spans))
	for i := range t.Spans {
		parent[t.Spans[i].SpanID] = t.Spans[i].Parent
	}
	depth := make(map[SpanID]int, len(t.Spans))
	for id := range parent {
		d, cur := 0, id
		for d <= len(t.Spans) { // cycle guard; well-formed trees never trip it
			p, ok := parent[cur]
			if !ok {
				break
			}
			if _, local := parent[p]; !local {
				break
			}
			d++
			cur = p
		}
		depth[id] = d
	}
	return depth
}

package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"
)

// TestChromeGolden pins the exact Chrome trace-event JSON for a synthetic
// trace built from fixed timestamps — every field (name, ph, ts, dur, pid,
// tid, args) byte-for-byte.
func TestChromeGolden(t *testing.T) {
	tid, _ := ParseTraceID("4bf92f3577b34da6a3ce929d0e0e4736")
	base := time.UnixMicro(1_700_000_000_000_000).UTC()
	root := SpanID{1, 0, 0, 0, 0, 0, 0, 1}
	child := SpanID{1, 0, 0, 0, 0, 0, 0, 2}
	grand := SpanID{1, 0, 0, 0, 0, 0, 0, 3}
	tr := &Trace{
		ID:       tid,
		Name:     "request",
		Start:    base,
		Duration: 5 * time.Millisecond,
		Spans: []SpanRecord{
			{
				SpanID: grand, Parent: child, Name: "wal_fsync",
				Start: base.Add(2 * time.Millisecond), Duration: 500 * time.Microsecond,
			},
			{
				SpanID: child, Parent: root, Name: "wal_append",
				Start: base.Add(1 * time.Millisecond), Duration: 2 * time.Millisecond,
				Attrs: []Attr{{Key: "edits", Value: "3"}},
			},
			{
				SpanID: root, Name: "request",
				Start: base, Duration: 5 * time.Millisecond,
				Err: "deadline exceeded",
			},
		},
	}

	var buf bytes.Buffer
	if err := WriteChrome(&buf, []*Trace{tr}); err != nil {
		t.Fatal(err)
	}

	const want = `{
 "traceEvents": [
  {
   "name": "wal_fsync",
   "ph": "X",
   "ts": 2000,
   "dur": 500,
   "pid": 1,
   "tid": 2,
   "args": {
    "parent_id": "0100000000000002",
    "span_id": "0100000000000003",
    "trace_id": "4bf92f3577b34da6a3ce929d0e0e4736"
   }
  },
  {
   "name": "wal_append",
   "ph": "X",
   "ts": 1000,
   "dur": 2000,
   "pid": 1,
   "tid": 1,
   "args": {
    "edits": "3",
    "parent_id": "0100000000000001",
    "span_id": "0100000000000002",
    "trace_id": "4bf92f3577b34da6a3ce929d0e0e4736"
   }
  },
  {
   "name": "request",
   "ph": "X",
   "ts": 0,
   "dur": 5000,
   "pid": 1,
   "tid": 0,
   "args": {
    "error": "deadline exceeded",
    "span_id": "0100000000000001",
    "trace_id": "4bf92f3577b34da6a3ce929d0e0e4736"
   }
  }
 ],
 "displayTimeUnit": "ms"
}
`
	if got := buf.String(); got != want {
		t.Errorf("chrome golden mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestChromeSchema validates a live-recorded trace against the trace-event
// schema: required fields present, complete events, µs units, nesting depth
// in tid.
func TestChromeSchema(t *testing.T) {
	tracer := New(Options{})
	ctx, root := tracer.Start(context.Background(), "request")
	c1, sp := StartSpan(ctx, "closure_run")
	_, sp2 := StartSpan(c1, "timing_propagate")
	sp2.End()
	sp.End()
	root.End()

	var buf bytes.Buffer
	if err := WriteChrome(&buf, tracer.Recent()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("%d events, want 3", len(doc.TraceEvents))
	}
	depths := map[string]float64{"request": 0, "closure_run": 1, "timing_propagate": 2}
	for _, ev := range doc.TraceEvents {
		for _, field := range []string{"name", "ph", "ts", "dur", "pid", "tid"} {
			if _, ok := ev[field]; !ok {
				t.Errorf("event missing %q: %v", field, ev)
			}
		}
		if ev["ph"] != "X" {
			t.Errorf("ph = %v, want X", ev["ph"])
		}
		name := ev["name"].(string)
		if ev["tid"].(float64) != depths[name] {
			t.Errorf("%s tid = %v, want %v", name, ev["tid"], depths[name])
		}
	}
}

func TestChromeEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChrome(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.TraceEvents == nil || len(doc.TraceEvents) != 0 {
		t.Errorf("empty export should render traceEvents as [], got %v", doc.TraceEvents)
	}
}

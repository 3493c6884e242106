package main

import (
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"sort"
	"time"

	"repro/internal/trace"
)

// Tracing surface: the ServeHTTP middleware opens one root span per request
// (joining the client's W3C traceparent when present), the engine layers
// attach their phase spans through the request context, and the completed
// trees land in the tracer's flight recorder, served read-only here.

// newLogger builds the server logger for -log-format: "text" (the default
// human-readable slog handler) or "json" (one JSON object per line, for log
// shippers). Both write to stderr.
func newLogger(format string) (*slog.Logger, error) {
	switch format {
	case "", "text":
		return slog.New(slog.NewTextHandler(os.Stderr, nil)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, nil)), nil
	}
	return nil, fmt.Errorf("unknown log format %q (want text or json)", format)
}

// requestID returns the request's correlation id: the client's X-Request-Id
// when it is well-formed (so retries and proxies can thread one id through),
// a freshly minted one otherwise.
func requestID(r *http.Request) string {
	if id := sanitizeRequestID(r.Header.Get("X-Request-Id")); id != "" {
		return id
	}
	return newRequestID()
}

// sanitizeRequestID vets an inbound correlation id: non-empty, at most 64
// bytes, and limited to [A-Za-z0-9._-] — anything else (log-injection
// payloads, binary junk) is discarded and replaced by a minted id.
func sanitizeRequestID(id string) string {
	if id == "" || len(id) > 64 {
		return ""
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return ""
		}
	}
	return id
}

// traceSummaryJSON is one flight-recorder entry in the GET /debug/traces
// list.
type traceSummaryJSON struct {
	ID         string    `json:"id"`
	Name       string    `json:"name"`
	Route      string    `json:"route,omitempty"`
	Status     string    `json:"status,omitempty"`
	Start      time.Time `json:"start"`
	DurationMs float64   `json:"durationMs"`
	Spans      int       `json:"spans"`
	Dropped    int       `json:"dropped,omitempty"`
	Err        bool      `json:"err,omitempty"`
	Pinned     bool      `json:"pinned,omitempty"`
}

func traceSummary(t *trace.Trace, pinned bool) traceSummaryJSON {
	return traceSummaryJSON{
		ID:         t.ID.String(),
		Name:       t.Name,
		Route:      t.RootAttr("route"),
		Status:     t.RootAttr("status"),
		Start:      t.Start,
		DurationMs: float64(t.Duration) / float64(time.Millisecond),
		Spans:      len(t.Spans),
		Dropped:    t.Dropped,
		Err:        t.Err,
		Pinned:     pinned,
	}
}

// handleTraceList serves GET /debug/traces: the flight recorder's retained
// traces, newest first — the recent ring plus pinned slow/error traces that
// outlived it. ?slow=1 restricts the answer to the pinned ring.
func (s *server) handleTraceList(w http.ResponseWriter, r *http.Request) {
	pinned := make(map[trace.TraceID]bool)
	for _, t := range s.tracer.Slow() {
		pinned[t.ID] = true
	}
	list := s.tracer.Recent()
	if r.URL.Query().Get("slow") != "" {
		list = s.tracer.Slow()
	}
	summaries := make([]traceSummaryJSON, 0, len(list))
	for _, t := range list {
		summaries = append(summaries, traceSummary(t, pinned[t.ID]))
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"count":  len(summaries),
		"traces": summaries,
	})
}

// spanNodeJSON is one span in the GET /debug/traces/{id} tree. Children are
// nested (sorted by start time); a span whose parent was not recorded
// locally — the root, or any span beyond the per-trace cap — surfaces as a
// top-level node.
type spanNodeJSON struct {
	SpanID     string            `json:"spanId"`
	ParentID   string            `json:"parentId,omitempty"`
	Name       string            `json:"name"`
	Start      time.Time         `json:"start"`
	DurationUs int64             `json:"durationUs"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Error      string            `json:"error,omitempty"`
	Children   []*spanNodeJSON   `json:"children,omitempty"`
}

// spanTree nests a trace's flat completion-ordered span records into
// parent→children form.
func spanTree(t *trace.Trace) []*spanNodeJSON {
	nodes := make(map[trace.SpanID]*spanNodeJSON, len(t.Spans))
	for i := range t.Spans {
		rec := &t.Spans[i]
		n := &spanNodeJSON{
			SpanID:     rec.SpanID.String(),
			Name:       rec.Name,
			Start:      rec.Start,
			DurationUs: rec.Duration.Microseconds(),
			Error:      rec.Err,
		}
		if !rec.Parent.IsZero() {
			n.ParentID = rec.Parent.String()
		}
		if len(rec.Attrs) > 0 {
			n.Attrs = make(map[string]string, len(rec.Attrs))
			for _, a := range rec.Attrs {
				n.Attrs[a.Key] = a.Value
			}
		}
		nodes[rec.SpanID] = n
	}
	var roots []*spanNodeJSON
	for i := range t.Spans {
		rec := &t.Spans[i]
		if parent, ok := nodes[rec.Parent]; ok && rec.Parent != rec.SpanID {
			parent.Children = append(parent.Children, nodes[rec.SpanID])
		} else {
			roots = append(roots, nodes[rec.SpanID])
		}
	}
	sortSpanNodes(roots)
	for _, n := range nodes {
		sortSpanNodes(n.Children)
	}
	return roots
}

func sortSpanNodes(ns []*spanNodeJSON) {
	sort.Slice(ns, func(i, j int) bool { return ns[i].Start.Before(ns[j].Start) })
}

// handleTraceGet serves GET /debug/traces/{id}: the retained trace as a
// nested span tree, or — with ?format=chrome — as Chrome trace-event JSON
// that chrome://tracing and Perfetto load directly.
func (s *server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	t, ok := s.tracer.Get(r.PathValue("id"))
	if !ok {
		httpError(w, r, "unknown trace id (evicted from the flight recorder, or never recorded)", http.StatusNotFound)
		return
	}
	if r.URL.Query().Get("format") == "chrome" {
		w.Header().Set("Content-Type", "application/json")
		if err := trace.WriteChrome(w, []*trace.Trace{t}); err != nil {
			s.logger.Error("rcserve: write chrome trace", "id", t.ID.String(), "err", err)
		}
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id":         t.ID.String(),
		"name":       t.Name,
		"start":      t.Start,
		"durationMs": float64(t.Duration) / float64(time.Millisecond),
		"err":        t.Err,
		"dropped":    t.Dropped,
		"spans":      spanTree(t),
	})
}

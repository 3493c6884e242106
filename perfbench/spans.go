package main

import (
	"encoding/json"
	"sort"
	"time"

	rcdelay "repro"
)

// span is one node of a span tree, from the library tracer or from
// rcserve's GET /debug/traces/{id}.
type span struct {
	Name     string
	Start    time.Time
	Dur      time.Duration
	Children []*span
}

func (s *span) end() time.Time { return s.Start.Add(s.Dur) }

// selfTime is the span's duration minus the part of its interval that its
// children cover. Children may overlap (closure trials run concurrently), so
// the covered part is the length of the union of their intervals, clipped
// to the parent's.
func selfTime(s *span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, c := range s.Children {
		a, b := c.Start, c.end()
		if a.Before(s.Start) {
			a = s.Start
		}
		if b.After(s.end()) {
			b = s.end()
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a.After(cur.b):
			covered += cur.b.Sub(cur.a)
			cur = v
		case v.b.After(cur.b):
			cur.b = v.b
		}
	}
	if len(ivs) > 0 {
		covered += cur.b.Sub(cur.a)
	}
	return s.Dur - covered
}

// addSelfTimes adds the self time of every span in the tree under s to
// into, keyed by span name.
func addSelfTimes(s *span, into map[string]time.Duration) {
	into[s.Name] += selfTime(s)
	for _, c := range s.Children {
		addSelfTimes(c, into)
	}
}

// treeFromRecorded nests a library trace's flat span records into trees; a
// span whose parent was not recorded is a root.
func treeFromRecorded(t *rcdelay.RecordedTrace) []*span {
	nodes := make(map[[8]byte]*span, len(t.Spans))
	for i := range t.Spans {
		r := &t.Spans[i]
		nodes[r.SpanID] = &span{Name: r.Name, Start: r.Start, Dur: r.Duration}
	}
	var roots []*span
	for i := range t.Spans {
		r := &t.Spans[i]
		if p, ok := nodes[r.Parent]; ok && r.Parent != r.SpanID {
			p.Children = append(p.Children, nodes[r.SpanID])
		} else {
			roots = append(roots, nodes[r.SpanID])
		}
	}
	return roots
}

// wireSpan is the span-tree node of rcserve's GET /debug/traces/{id}.
type wireSpan struct {
	Name       string      `json:"name"`
	Start      time.Time   `json:"start"`
	DurationUs int64       `json:"durationUs"`
	Children   []*wireSpan `json:"children"`
}

func (w *wireSpan) span() *span {
	s := &span{Name: w.Name, Start: w.Start, Dur: time.Duration(w.DurationUs) * time.Microsecond}
	for _, c := range w.Children {
		s.Children = append(s.Children, c.span())
	}
	return s
}

// parseServerTrace decodes one GET /debug/traces/{id} answer into its span
// trees.
func parseServerTrace(body []byte) ([]*span, error) {
	var doc struct {
		Spans []*wireSpan `json:"spans"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, err
	}
	roots := make([]*span, 0, len(doc.Spans))
	for _, w := range doc.Spans {
		roots = append(roots, w.span())
	}
	return roots, nil
}

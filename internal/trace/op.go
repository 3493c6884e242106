package trace

import (
	"context"
	"time"

	"repro/internal/obs"
)

// Op is one instrumented operation: a duration histogram observation (the
// obs side) and a trace span (the causality side) opened and closed
// together, so a phase can never drift between the two views. Either half
// may be absent — nil registry, untraced context — and a fully disabled Op
// is nil itself; every method is nil-safe.
type Op struct {
	span  *Span
	hist  *obs.Histogram // nil without a registry
	start time.Time
}

// StartOp is the single instrumentation point for engine phases: it opens
// a duration observation into the histogram "<name>_seconds{labels...}"
// (obs.LatencyBuckets) on reg AND a trace child span named name (labels
// become attributes) under the context's active span. The returned context
// carries the child span for deeper phases. Both reg and an untraced ctx
// degrade independently — a nil registry costs one pointer test; with
// neither, StartOp returns (ctx, nil) and the nil Op's End is a no-op.
func StartOp(ctx context.Context, reg *obs.Registry, name string, labels ...string) (context.Context, *Op) {
	var (
		hist  *obs.Histogram
		start time.Time
	)
	if reg != nil {
		hist = reg.Histogram(name+"_seconds", obs.LatencyBuckets, labels...)
		start = time.Now()
	}
	ctx, span := StartSpan(ctx, name)
	if hist == nil && span == nil {
		return ctx, nil
	}
	for i := 0; i+1 < len(labels); i += 2 {
		span.SetAttr(labels[i], labels[i+1])
	}
	return ctx, &Op{span: span, hist: hist, start: start}
}

// Span exposes the trace half (nil when the request is untraced) for extra
// attributes or events.
func (o *Op) Span() *Span {
	if o == nil {
		return nil
	}
	return o.span
}

// SetError marks the trace span failed (histograms record regardless).
func (o *Op) SetError(err error) {
	if o == nil {
		return
	}
	o.span.SetError(err)
}

// End closes both halves: the histogram observes the elapsed seconds and
// the span completes into its trace.
func (o *Op) End() {
	if o == nil {
		return
	}
	if o.hist != nil {
		o.hist.Observe(time.Since(o.start).Seconds())
	}
	o.span.End()
}

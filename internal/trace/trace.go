package trace

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one end-to-end request across every layer it touches,
// in the W3C trace-context format (16 bytes, rendered as 32 lowercase hex
// digits). The zero value is invalid.
type TraceID [16]byte

// SpanID identifies one span within a trace (8 bytes, 16 hex digits). The
// zero value means "no span" (a root span's parent).
type SpanID [8]byte

// IsZero reports whether the id is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the id is the all-zero "no span" value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the id as 32 lowercase hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String renders the id as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// ParseTraceID decodes a 32-hex-digit trace id; ok is false for malformed or
// all-zero input.
func ParseTraceID(src string) (TraceID, bool) {
	var t TraceID
	if len(src) != 32 || !isHex(src) {
		return t, false
	}
	if _, err := hex.Decode(t[:], []byte(src)); err != nil || t.IsZero() {
		return TraceID{}, false
	}
	return t, true
}

// ParseSpanID decodes a 16-hex-digit span id; ok is false for malformed or
// all-zero input.
func ParseSpanID(src string) (SpanID, bool) {
	var s SpanID
	if len(src) != 16 || !isHex(src) {
		return s, false
	}
	if _, err := hex.Decode(s[:], []byte(src)); err != nil || s.IsZero() {
		return SpanID{}, false
	}
	return s, true
}

// NewTraceID mints a random trace id.
func NewTraceID() TraceID {
	var t TraceID
	for t.IsZero() {
		if _, err := rand.Read(t[:]); err != nil {
			// crypto/rand failing is effectively fatal elsewhere; telemetry
			// falls back to a timestamp rather than taking the process down.
			binary.BigEndian.PutUint64(t[:8], uint64(time.Now().UnixNano()))
			binary.BigEndian.PutUint64(t[8:], uint64(time.Now().UnixNano())^0x9e3779b97f4a7c15)
		}
	}
	return t
}

// NewSpanID mints a random span id — clients use it as the parent id in an
// outbound traceparent header so the server's root span links back to them.
func NewSpanID() SpanID {
	var s SpanID
	for s.IsZero() {
		if _, err := rand.Read(s[:]); err != nil {
			binary.BigEndian.PutUint64(s[:], uint64(time.Now().UnixNano()))
		}
	}
	return s
}

// Attr is one key/value annotation on a span. Values are strings — spans
// describe phases, not payloads.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanRecord is one completed span as retained by the flight recorder.
// Parent is the zero SpanID for the trace's root (or, on a joined remote
// trace, the remote caller's span id, which also resolves to no local span).
type SpanRecord struct {
	SpanID   SpanID
	Parent   SpanID
	Name     string
	Start    time.Time
	Duration time.Duration
	Attrs    []Attr
	Err      string // non-empty when the span was marked failed
}

// Trace is one completed trace: the root span's identity plus every span
// recorded under it, in completion order (children before their parents).
type Trace struct {
	ID       TraceID
	Name     string // root span name
	Start    time.Time
	Duration time.Duration
	Err      bool // any span failed
	Spans    []SpanRecord
	// Dropped counts spans discarded beyond the per-trace cap; zero means the
	// span set is complete.
	Dropped int
}

// RootAttr returns the root span's value for key ("" when absent) — the
// idiomatic way to read request-level annotations like the matched route.
func (t *Trace) RootAttr(key string) string {
	for i := range t.Spans {
		if t.Spans[i].SpanID == t.rootSpanID() {
			for _, a := range t.Spans[i].Attrs {
				if a.Key == key {
					return a.Value
				}
			}
			return ""
		}
	}
	return ""
}

// rootSpanID finds the span whose parent is not recorded in the trace — the
// root (spans complete children-first, so the root is normally last).
func (t *Trace) rootSpanID() SpanID {
	present := make(map[SpanID]bool, len(t.Spans))
	for i := range t.Spans {
		present[t.Spans[i].SpanID] = true
	}
	for i := len(t.Spans) - 1; i >= 0; i-- {
		if !present[t.Spans[i].Parent] {
			return t.Spans[i].SpanID
		}
	}
	return SpanID{}
}

// active is the mutable collector behind one in-flight trace. Spans from any
// goroutine of the request append here under mu; the root span's End seals
// it and hands the finished Trace to the tracer's recorder.
type active struct {
	tracer  *Tracer
	id      TraceID
	salt    [4]byte // high half of minted span ids
	nextSID uint32  // atomic; low half of minted span ids

	mu      sync.Mutex
	spans   []SpanRecord
	dropped int
	err     bool
}

// newSpanID mints a span id unique within the trace: a per-trace random salt
// over an atomic counter (counters start at 1, so the id is never zero).
func (a *active) newSpanID() SpanID {
	var s SpanID
	copy(s[:4], a.salt[:])
	binary.BigEndian.PutUint32(s[4:], atomic.AddUint32(&a.nextSID, 1))
	return s
}

// record appends one completed span, honoring the tracer's per-trace cap.
func (a *active) record(rec SpanRecord) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if rec.Err != "" {
		a.err = true
	}
	if len(a.spans) >= a.tracer.opt.MaxSpans {
		a.dropped++
		return
	}
	a.spans = append(a.spans, rec)
}

// Span is one live timed operation. Spans are created by Tracer.Start (trace
// roots) and StartSpan (children); every method is safe on a nil *Span, so
// un-traced code paths cost one pointer test and nothing else.
type Span struct {
	a      *active
	id     SpanID
	parent SpanID
	name   string
	start  time.Time
	root   bool

	mu    sync.Mutex // guards attrs/err: callbacks may annotate cross-goroutine
	attrs []Attr
	err   string
	ended atomic.Bool
}

// TraceID reports the id of the trace the span belongs to (zero on nil).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.a.id
}

// SpanID reports the span's own id (zero on nil).
func (s *Span) SpanID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// SetAttr annotates the span with a key/value pair.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// SetError marks the span (and therefore its trace) failed. A failed trace
// is always pinned by the flight recorder's error/slow ring. Nil errors are
// ignored.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.err = err.Error()
	s.mu.Unlock()
}

// End completes the span, appending its record to the trace. Ending the root
// span seals the trace and offers it to the tracer's flight recorder. End is
// idempotent: second and later calls are no-ops.
func (s *Span) End() {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	now := time.Now()
	s.mu.Lock()
	rec := SpanRecord{
		SpanID:   s.id,
		Parent:   s.parent,
		Name:     s.name,
		Start:    s.start,
		Duration: now.Sub(s.start),
		Attrs:    s.attrs,
		Err:      s.err,
	}
	s.mu.Unlock()
	s.a.record(rec)
	if s.root {
		s.a.tracer.finish(s.a, rec)
	}
}

// ctxKey carries the active span through a context chain.
type ctxKey struct{}

// ContextWithSpan returns a context carrying span as the active span.
func ContextWithSpan(ctx context.Context, span *Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, span)
}

// FromContext returns the context's active span, or nil when the request is
// not being traced — the nil is safe to use directly.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// StartSpan opens a child of the context's active span and returns the
// derived context carrying it. When the context carries no span (tracing
// disabled, or an untraced request) it returns (ctx, nil) after a single
// context lookup — the pinned-cheap disabled path.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	child := &Span{
		a:      parent.a,
		id:     parent.a.newSpanID(),
		parent: parent.id,
		name:   name,
		start:  time.Now(),
	}
	return ContextWithSpan(ctx, child), child
}

// Options configures a Tracer. The zero value keeps the last 64 completed
// traces, pins up to 64 slow/error traces above a 100ms root threshold, and
// caps each trace at 4096 spans.
type Options struct {
	// Capacity is the recent-trace ring size (0 means 64; minimum 1).
	Capacity int
	// SlowCapacity is the pinned slow/error ring size (0 means 64; minimum 1).
	SlowCapacity int
	// SlowThreshold is the root-span duration at or above which a completed
	// trace is pinned into the slow ring regardless of recent-ring churn
	// (0 means 100ms; negative pins nothing on latency, errors still pin).
	SlowThreshold time.Duration
	// MaxSpans caps spans retained per trace; completions beyond it are
	// dropped and counted in Trace.Dropped (0 means 4096).
	MaxSpans int
}

func (o Options) resolve() Options {
	if o.Capacity <= 0 {
		o.Capacity = 64
	}
	if o.SlowCapacity <= 0 {
		o.SlowCapacity = 64
	}
	if o.SlowThreshold == 0 {
		o.SlowThreshold = 100 * time.Millisecond
	}
	if o.MaxSpans <= 0 {
		o.MaxSpans = 4096
	}
	return o
}

// Tracer mints traces and retains completed ones in its flight recorder. All
// methods are goroutine-safe, and all methods on a nil *Tracer are no-ops
// returning nil spans, so a server can thread one pointer everywhere and
// disable tracing by leaving it nil.
type Tracer struct {
	opt Options
	rec recorder
}

// New returns a tracer with its flight recorder sized by opt.
func New(opt Options) *Tracer {
	t := &Tracer{opt: opt.resolve()}
	t.rec.init(t.opt.Capacity, t.opt.SlowCapacity)
	return t
}

// Start opens a new root span (minting a fresh trace id) and returns the
// context carrying it. On a nil tracer it returns (ctx, nil).
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, *Span) {
	return t.StartRemote(ctx, name, TraceID{}, SpanID{})
}

// StartRemote opens a root span that joins an inbound trace: traceID names
// the caller's trace (zero mints a fresh one) and parent the caller's span
// (zero for none). This is the server entry point behind W3C traceparent.
func (t *Tracer) StartRemote(ctx context.Context, name string, traceID TraceID, parent SpanID) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	if traceID.IsZero() {
		traceID = NewTraceID()
	}
	a := &active{tracer: t, id: traceID}
	copy(a.salt[:], traceID[6:10]) // trace-derived salt keeps ids stable-ish per trace
	if a.salt == [4]byte{} {
		a.salt = [4]byte{0x5a, 0xa5, 0x3c, 0xc3}
	}
	sp := &Span{
		a:      a,
		id:     a.newSpanID(),
		parent: parent,
		name:   name,
		start:  time.Now(),
		root:   true,
	}
	return ContextWithSpan(ctx, sp), sp
}

// finish seals an active trace once its root span ended and offers it to
// the recorder.
func (t *Tracer) finish(a *active, root SpanRecord) {
	a.mu.Lock()
	tr := &Trace{
		ID:       a.id,
		Name:     root.Name,
		Start:    root.Start,
		Duration: root.Duration,
		Err:      a.err,
		Spans:    a.spans,
		Dropped:  a.dropped,
	}
	a.spans = nil // the trace owns the slice now; a straggler span would drop
	a.mu.Unlock()
	slow := t.opt.SlowThreshold >= 0 && tr.Duration >= t.opt.SlowThreshold
	t.rec.add(tr, slow || tr.Err)
}

// Recent lists the recorder's completed traces, newest first: the recent
// ring followed by pinned slow/error traces that have already rotated out of
// it (no trace appears twice).
func (t *Tracer) Recent() []*Trace {
	if t == nil {
		return nil
	}
	return t.rec.recentList()
}

// Slow lists the pinned slow/error traces, newest first.
func (t *Tracer) Slow() []*Trace {
	if t == nil {
		return nil
	}
	return t.rec.slowList()
}

// Get returns the retained trace with the given hex id, searching both
// rings.
func (t *Tracer) Get(id string) (*Trace, bool) {
	if t == nil {
		return nil, false
	}
	tid, ok := ParseTraceID(id)
	if !ok {
		return nil, false
	}
	return t.rec.get(tid)
}

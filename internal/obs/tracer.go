package obs

import (
	"context"
	"sync"
	"time"
)

// Domain tells which clock a span's timestamps live on. The distinction
// matters because this repository runs a *simulated* device: host code is
// measured in real wall-clock time, while queue commands and kernel
// schedules carry modelled (cost-model) time. The trace exporter keeps the
// two on separate trace processes so neither timeline lies about the other.
type Domain int

// Span domains.
const (
	// DomainWall timestamps are microseconds of real time since the
	// tracer's epoch.
	DomainWall Domain = iota
	// DomainModelled timestamps are microseconds on the simulated device /
	// queue timeline.
	DomainModelled
)

// SpanRecord is one finished span.
type SpanRecord struct {
	Name     string
	Category string
	// Track groups spans onto one horizontal row ("thread") of the trace;
	// empty means the category is the track.
	Track   string
	Domain  Domain
	StartUS float64 // microseconds since the domain's origin
	DurUS   float64
	Args    map[string]any
	// TraceID/SpanID/ParentID link the span into a distributed trace (see
	// TraceContext); all empty when the span was recorded outside one.
	TraceID  string
	SpanID   string
	ParentID string
}

// MaxSpans is how many finished spans a Tracer keeps: a long-running
// process (nbodyd) records spans for as long as it serves, so the tracer
// keeps the newest MaxSpans and counts the older ones it drops.
const MaxSpans = 1 << 16

// Tracer collects spans. It is safe for concurrent use; a nil *Tracer is a
// no-op, so instrumentation costs a nil check when tracing is disabled.
type Tracer struct {
	mu    sync.Mutex
	epoch time.Time
	// spans is a ring of the newest MaxSpans finished spans; once it is
	// full, next is the slot of the oldest, overwritten by the next add.
	spans   []SpanRecord
	next    int
	dropped int64
}

// NewTracer returns a tracer whose wall-clock epoch is now.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now()}
}

// Span is an open wall-clock span; End records it. A nil *Span (from a nil
// tracer) ignores every call.
type Span struct {
	t     *Tracer
	rec   SpanRecord
	start time.Time
}

// Start opens a wall-clock span. The returned span must be closed with End.
func (t *Tracer) Start(name, category string) *Span {
	if t == nil {
		return nil // before time.Now(): the disabled path must stay free
	}
	return t.StartAt(name, category, time.Now())
}

// StartAt opens a wall-clock span that began at the given instant — used to
// record intervals whose start predates the call, like a job's queue wait
// (the span is opened when the worker picks the job up, backdated to the
// submit time). The returned span must still be closed with End.
func (t *Tracer) StartAt(name, category string, start time.Time) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, start: start, rec: SpanRecord{Name: name, Category: category, Domain: DomainWall}}
}

// StartCtx opens a wall-clock span as a child of the trace context carried by
// ctx (plain Start when ctx carries none).
func (t *Tracer) StartCtx(ctx context.Context, name, category string) *Span {
	return t.Start(name, category).ChildOf(TraceContextFrom(ctx))
}

// Track assigns the span to a named trace row and returns the span.
func (s *Span) Track(track string) *Span {
	if s != nil {
		s.rec.Track = track
	}
	return s
}

// Trace stamps the span as occupying tc itself: the span IS tc.SpanID within
// tc.TraceID. Use for a root span whose context children will link to; an
// invalid tc leaves the span unstamped.
func (s *Span) Trace(tc TraceContext) *Span {
	if s != nil && tc.Valid() {
		s.rec.TraceID = tc.TraceID
		s.rec.SpanID = tc.SpanID
	}
	return s
}

// ChildOf stamps the span as a fresh child of tc (same trace, new span id,
// parent link to tc.SpanID); an invalid tc leaves the span unstamped.
func (s *Span) ChildOf(tc TraceContext) *Span {
	if s != nil && tc.Valid() {
		s.rec.TraceID = tc.TraceID
		s.rec.ParentID = tc.SpanID
		s.rec.SpanID = NewSpanID()
	}
	return s
}

// Parent records an explicit parent span id (for root spans adopted from an
// inbound traceparent, whose parent lives in the caller's process).
func (s *Span) Parent(spanID string) *Span {
	if s != nil {
		s.rec.ParentID = spanID
	}
	return s
}

// TraceContext returns the span's own position in its trace — hand it to
// WithTraceContext so nested work records this span as its parent. Zero when
// the span is unstamped or nil.
func (s *Span) TraceContext() TraceContext {
	if s == nil {
		return TraceContext{}
	}
	return TraceContext{TraceID: s.rec.TraceID, SpanID: s.rec.SpanID}
}

// Arg attaches an attribute and returns the span.
func (s *Span) Arg(key string, value any) *Span {
	if s == nil {
		return nil
	}
	if s.rec.Args == nil {
		s.rec.Args = make(map[string]any, 4)
	}
	s.rec.Args[key] = value
	return s
}

// End closes the span and records it on the tracer.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := time.Now()
	s.rec.StartUS = float64(s.start.Sub(s.t.epoch)) / float64(time.Microsecond)
	s.rec.DurUS = float64(end.Sub(s.start)) / float64(time.Microsecond)
	s.t.add(s.rec)
}

// AddModelled records a span on the modelled timeline (start and duration in
// *seconds* of simulated time, matching the cl/gpusim cost-model units).
func (t *Tracer) AddModelled(name, category, track string, startSec, durSec float64, args map[string]any) {
	if t == nil {
		return
	}
	t.add(SpanRecord{
		Name:     name,
		Category: category,
		Track:    track,
		Domain:   DomainModelled,
		StartUS:  startSec * 1e6,
		DurUS:    durSec * 1e6,
		Args:     args,
	})
}

func (t *Tracer) add(rec SpanRecord) {
	t.mu.Lock()
	if len(t.spans) < MaxSpans {
		t.spans = append(t.spans, rec)
	} else {
		t.spans[t.next] = rec
		t.next = (t.next + 1) % MaxSpans
		t.dropped++
	}
	t.mu.Unlock()
}

// Spans returns a copy of the kept finished spans (the newest MaxSpans) in
// recording order.
func (t *Tracer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == 0 {
		return nil
	}
	out := make([]SpanRecord, 0, len(t.spans))
	out = append(out, t.spans[t.next:]...)
	return append(out, t.spans[:t.next]...)
}

// Dropped returns how many finished spans the tracer has dropped, oldest
// first, to keep at most MaxSpans.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Reset drops all recorded spans, zeroes the dropped count and restarts the
// wall-clock epoch.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = nil
	t.next = 0
	t.dropped = 0
	t.epoch = time.Now()
	t.mu.Unlock()
}

package stats

import (
	"sync"
	"time"
)

// Span is one completed RPC, tagged with the wire xid so a snapshot
// can be correlated with a packet capture or the peer's span for the
// same call. DurUS is the span's total in microseconds; Stages is the
// per-stage breakdown (same unit, indexed by Stage) filled when the
// span came from a StageClock, all zeros for plain duration-only
// records.
type Span struct {
	XID  uint32 `json:"xid"`
	Prog uint32 `json:"prog"`
	Vers uint32 `json:"vers"`
	Proc uint32 `json:"proc"`
	// Start is the span's wall-clock start in microseconds since the
	// Unix epoch (stage clocks run on the monotonic clock; this one
	// field anchors them in real time).
	Start int64 `json:"start_us,omitempty"`
	// Principal is the authenticated caller: the SFS authentication
	// number (or unix uid on the plain-NFS baseline), 0 for anonymous.
	Principal uint32 `json:"principal,omitempty"`
	// Bytes counts the wire bytes this RPC moved (call + reply records).
	Bytes uint64 `json:"bytes,omitempty"`
	DurUS int64  `json:"dur_us"`
	// Stages is the per-stage microsecond breakdown, indexed by Stage.
	Stages [NumStages]int64 `json:"stages_us,omitempty"`
	Err    bool             `json:"err,omitempty"`
}

// TraceSpans is the capacity of every trace ring.
const TraceSpans = 256

// TraceRing is one traced connection's or server's span sink: the
// last TraceSpans spans, xid-tagged, and per-stage latency histograms
// over every span. It exists only where tracing is on; a nil
// *TraceRing is tracing off, and every method is safe on it. Record
// takes a short mutex — spans are for introspection, not the fast
// path's steady state.
type TraceRing struct {
	mu     sync.Mutex
	spans  [TraceSpans]Span
	next   int
	total  uint64
	stages StageSet

	// Spans of at least slowUS whole microseconds are handed to slow,
	// outside the ring lock; slow is nil when there is no slow-span log.
	slowUS int64
	slow   func(Span)
}

// NewTraceRing returns an empty ring. Every recorded span whose total
// is at or above threshold, compared in whole microseconds (so a
// sub-microsecond threshold passes every span), is also passed to
// slow — the "-trace-slow" waterfall log. A zero threshold or nil slow
// means no such log.
func NewTraceRing(threshold time.Duration, slow func(Span)) *TraceRing {
	if threshold <= 0 {
		slow = nil
	}
	return &TraceRing{slowUS: threshold.Microseconds(), slow: slow}
}

// Record files one finished span in the ring and the stage histograms.
func (t *TraceRing) Record(s *Span) {
	if t == nil {
		return
	}
	t.stages.Record(s)
	t.mu.Lock()
	t.spans[t.next] = *s
	t.next = (t.next + 1) % TraceSpans
	t.total++
	t.mu.Unlock()
	if t.slow != nil && s.DurUS >= t.slowUS {
		t.slow(*s)
	}
}

// Stages returns the per-stage latency histograms of every recorded
// span; all zero on a nil ring.
func (t *TraceRing) Stages() StageSetSnapshot {
	if t == nil {
		return StageSetSnapshot{}
	}
	return t.stages.Snapshot()
}

// TraceSnapshot is the JSON form of a TraceRing: how many spans were
// ever recorded, and the most recent ones oldest-first.
type TraceSnapshot struct {
	Recorded uint64 `json:"recorded"`
	Spans    []Span `json:"spans,omitempty"`
}

// Snapshot returns the buffered spans, oldest first; none on a nil
// ring.
func (t *TraceRing) Snapshot() TraceSnapshot {
	if t == nil {
		return TraceSnapshot{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := TraceSnapshot{Recorded: t.total}
	if t.total < TraceSpans {
		out.Spans = append(out.Spans, t.spans[:t.next]...)
		return out
	}
	out.Spans = append(out.Spans, t.spans[t.next:]...)
	out.Spans = append(out.Spans, t.spans[:t.next]...)
	return out
}

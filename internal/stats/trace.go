package stats

import (
	"sync"
	"sync/atomic"
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

// TraceRing keeps the last N spans in a fixed ring. Recording is
// a no-op while disabled (a single atomic load), so the ring can stay
// wired into the dispatch path permanently and be switched on by the
// -stats listener. When enabled, Record takes a short mutex — spans
// are for introspection, not the fast path's steady state.
//
// The span storage (N × ~170 bytes) is allocated by the first Record
// that finds the ring enabled, and never again: every connection
// builds an RPC server with a ring, and almost none is ever traced.
type TraceRing struct {
	enabled atomic.Bool
	mu      sync.Mutex
	size    int
	spans   []Span // nil until the first enabled Record, then len size
	next    int
	total   uint64

	// Slow-span log: spans at or above slowUS microseconds are handed
	// to emit (outside the ring lock). Configured once at startup.
	slowUS atomic.Int64
	emitMu sync.Mutex
	emit   func(Span)
}

// NewTraceRing returns a ring holding the most recent n spans.
func NewTraceRing(n int) *TraceRing {
	if n <= 0 {
		n = 1
	}
	return &TraceRing{size: n}
}

// SetEnabled switches recording on or off.
func (t *TraceRing) SetEnabled(on bool) { t.enabled.Store(on) }

// Enabled reports whether spans are being recorded.
func (t *TraceRing) Enabled() bool { return t.enabled.Load() }

// SetSlowLog arranges for every recorded span with a total at or
// above threshold to be passed to emit — the "-trace-slow" waterfall
// log. A zero threshold or nil emit disables it.
func (t *TraceRing) SetSlowLog(threshold time.Duration, emit func(Span)) {
	t.emitMu.Lock()
	t.emit = emit
	t.emitMu.Unlock()
	if threshold <= 0 || emit == nil {
		t.slowUS.Store(0)
		return
	}
	t.slowUS.Store(threshold.Microseconds())
}

// Record stores s if the ring is enabled.
func (t *TraceRing) Record(s Span) {
	if !t.enabled.Load() {
		return
	}
	t.mu.Lock()
	if t.spans == nil {
		t.spans = make([]Span, t.size)
	}
	t.spans[t.next] = s
	t.next = (t.next + 1) % t.size
	t.total++
	t.mu.Unlock()
	if slow := t.slowUS.Load(); slow > 0 && s.DurUS >= slow {
		t.emitMu.Lock()
		emit := t.emit
		t.emitMu.Unlock()
		if emit != nil {
			emit(s)
		}
	}
}

// TraceSnapshot is the JSON form of a TraceRing: how many spans were
// ever recorded, and the most recent ones oldest-first.
type TraceSnapshot struct {
	Recorded uint64 `json:"recorded"`
	Spans    []Span `json:"spans,omitempty"`
}

// Snapshot returns the buffered spans, oldest first.
func (t *TraceRing) Snapshot() TraceSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := TraceSnapshot{Recorded: t.total}
	if t.total < uint64(t.size) {
		out.Spans = append(out.Spans, t.spans[:t.next]...)
		return out
	}
	out.Spans = append(out.Spans, t.spans[t.next:]...)
	out.Spans = append(out.Spans, t.spans[:t.next]...)
	return out
}

package sunrpc

// RPC-layer observability: every Server owns a Metrics block (shared
// across connections when the owner passes one Metrics to many
// Servers via SetMetrics, as the NFS server does for its
// per-connection sessions). Counters sit directly on the dispatch
// path, so everything here is allocation-free once a program's
// counter table exists: a counter bump is one atomic add, the
// per-proc lookup is an RLock'd map read, and trace recording is a
// single atomic load while disabled.

import (
	"fmt"
	"sync"

	"repro/internal/stats"
)

// maxProcTrack bounds the per-procedure counter table of one
// registered program. NFSv3 plus the SFS extension procedures top
// out at 103; anything at or above the bound is aggregated into an
// "other" slot rather than dropped.
const maxProcTrack = 128

// progMetrics is the per-(program, version) counter table.
type progMetrics struct {
	calls [maxProcTrack]stats.Counter
	errs  [maxProcTrack]stats.Counter
	otherCalls,
	otherErrs stats.Counter
}

func (p *progMetrics) observe(proc uint32, failed bool) {
	if proc < maxProcTrack {
		p.calls[proc].Inc()
		if failed {
			p.errs[proc].Inc()
		}
		return
	}
	p.otherCalls.Inc()
	if failed {
		p.otherErrs.Inc()
	}
}

// Metrics instruments a Server's dispatch pipeline: aggregate
// call/reply counters, the dispatch-queue depth (calls read off the
// wire but not yet replied), worker-pool occupancy, a per-call
// latency histogram in microseconds, per-procedure counters, and an
// xid-tagged trace ring (off until SetEnabled).
type Metrics struct {
	Calls   stats.Counter // well-formed calls dispatched
	Replies stats.Counter // replies encoded successfully
	Dropped stats.Counter // unparseable records dropped silently
	Errors  stats.Counter // server-side encode failures

	InFlight stats.Gauge     // dispatch-queue depth
	Workers  stats.Gauge     // workers executing a handler
	Latency  stats.Histogram // per-call dispatch-to-reply, µs
	Trace    *stats.TraceRing
	// Stages aggregates per-stage latency histograms from traced spans
	// (populated only while Trace is enabled).
	Stages *stats.StageSet

	mu    sync.RWMutex
	progs map[progVers]*progMetrics
}

// NewMetrics returns a fresh metrics block with a 256-span trace
// ring (disabled until Trace.SetEnabled(true)).
func NewMetrics() *Metrics { return NewMetricsSized(256) }

// NewMetricsSized is NewMetrics with a caller-chosen trace-ring
// capacity (the daemons expose it as a flag).
func NewMetricsSized(spans int) *Metrics {
	return &Metrics{
		Trace:  stats.NewTraceRing(spans),
		Stages: new(stats.StageSet),
		progs:  make(map[progVers]*progMetrics),
	}
}

// prog returns (creating on first use) the counter table for pv.
func (m *Metrics) prog(pv progVers) *progMetrics {
	m.mu.RLock()
	pm := m.progs[pv]
	m.mu.RUnlock()
	if pm != nil {
		return pm
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if pm = m.progs[pv]; pm == nil {
		pm = new(progMetrics)
		m.progs[pv] = pm
	}
	return pm
}

// ProcCount is one procedure's totals in a snapshot.
type ProcCount struct {
	Calls  uint64 `json:"calls"`
	Errors uint64 `json:"errors,omitempty"`
}

// MetricsSnapshot is the JSON form of a Metrics block. Per-procedure
// keys are "prog.vers.proc" (numeric — the RPC layer does not know
// procedure names; the NFS server exposes named counters one layer
// up).
type MetricsSnapshot struct {
	Calls    uint64                 `json:"calls"`
	Replies  uint64                 `json:"replies"`
	Dropped  uint64                 `json:"dropped,omitempty"`
	Errors   uint64                 `json:"errors,omitempty"`
	InFlight stats.GaugeSnapshot    `json:"in_flight"`
	Workers  stats.GaugeSnapshot    `json:"workers"`
	Latency  stats.HistSnapshot     `json:"latency_us"`
	Procs    map[string]ProcCount   `json:"procs,omitempty"`
	Trace    stats.TraceSnapshot    `json:"trace"`
	Stages   stats.StageSetSnapshot `json:"stages,omitempty"`
}

// Snapshot captures the metrics block.
func (m *Metrics) Snapshot() MetricsSnapshot {
	s := MetricsSnapshot{
		Calls:    m.Calls.Load(),
		Replies:  m.Replies.Load(),
		Dropped:  m.Dropped.Load(),
		Errors:   m.Errors.Load(),
		InFlight: m.InFlight.Snapshot(),
		Workers:  m.Workers.Snapshot(),
		Latency:  m.Latency.Snapshot(),
		Trace:    m.Trace.Snapshot(),
	}
	if m.Stages != nil {
		s.Stages = m.Stages.Snapshot()
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	for pv, pm := range m.progs {
		for proc := range pm.calls {
			if n := pm.calls[proc].Load(); n > 0 {
				if s.Procs == nil {
					s.Procs = make(map[string]ProcCount)
				}
				s.Procs[fmt.Sprintf("%d.%d.%d", pv.prog, pv.vers, proc)] =
					ProcCount{Calls: n, Errors: pm.errs[proc].Load()}
			}
		}
		if n := pm.otherCalls.Load(); n > 0 {
			if s.Procs == nil {
				s.Procs = make(map[string]ProcCount)
			}
			s.Procs[fmt.Sprintf("%d.%d.other", pv.prog, pv.vers)] =
				ProcCount{Calls: n, Errors: pm.otherErrs.Load()}
		}
	}
	return s
}

// ---------------------------------------------------------------------
// Wire-level counters: process-wide totals of record-marked messages
// through WriteRecord/ReadRecord, shared by every connection in the
// process (clients, servers, callbacks).

var wire struct {
	recordsOut, bytesOut stats.Counter
	recordsIn, bytesIn   stats.Counter
}

// WireStats is the JSON form of the process-wide wire counters.
// Bytes include the 4-byte record-marking header per fragment.
type WireStats struct {
	RecordsOut uint64 `json:"records_out"`
	BytesOut   uint64 `json:"bytes_out"`
	RecordsIn  uint64 `json:"records_in"`
	BytesIn    uint64 `json:"bytes_in"`
}

// WireSnapshot captures the process-wide wire counters.
func WireSnapshot() WireStats {
	return WireStats{
		RecordsOut: wire.recordsOut.Load(),
		BytesOut:   wire.bytesOut.Load(),
		RecordsIn:  wire.recordsIn.Load(),
		BytesIn:    wire.bytesIn.Load(),
	}
}

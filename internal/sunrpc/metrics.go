package sunrpc

// RPC-layer observability: every Server owns a Metrics block (shared
// across connections when the owner passes one Metrics to many
// Servers via SetMetrics, as the NFS server does for its
// per-connection sessions). Counters sit directly on the dispatch
// path: a counter bump is one atomic add, and an untraced block (nil
// Trace) records no span. Per-procedure counts live one layer up,
// where procedures have names (nfs.ServerStats.Procs).

import "repro/internal/stats"

// Metrics instruments a Server's dispatch pipeline: aggregate
// call/reply counters, the dispatch-queue depth (calls read off the
// wire but not yet replied), worker-pool occupancy, and, when the
// owner traces, an xid-tagged trace ring.
type Metrics struct {
	Calls   stats.Counter // well-formed calls dispatched
	Replies stats.Counter // replies encoded successfully
	Dropped stats.Counter // records read that were neither a call nor a pending reply
	Errors  stats.Counter // server-side encode failures

	InFlight stats.Gauge // dispatch-queue depth
	Workers  stats.Gauge // workers executing a handler
	// Trace receives every served call's span; nil serves untraced.
	// It is fixed before the first connection is served.
	Trace *stats.TraceRing
}

// MetricsSnapshot is the JSON form of a Metrics block.
type MetricsSnapshot struct {
	Calls    uint64                 `json:"calls"`
	Replies  uint64                 `json:"replies"`
	Dropped  uint64                 `json:"dropped,omitempty"`
	Errors   uint64                 `json:"errors,omitempty"`
	InFlight stats.GaugeSnapshot    `json:"in_flight"`
	Workers  stats.GaugeSnapshot    `json:"workers"`
	Trace    stats.TraceSnapshot    `json:"trace"`
	Stages   stats.StageSetSnapshot `json:"stages,omitempty"`
}

// Snapshot captures the metrics block.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		Calls:    m.Calls.Load(),
		Replies:  m.Replies.Load(),
		Dropped:  m.Dropped.Load(),
		Errors:   m.Errors.Load(),
		InFlight: m.InFlight.Snapshot(),
		Workers:  m.Workers.Snapshot(),
		Trace:    m.Trace.Snapshot(),
		Stages:   m.Trace.Stages(),
	}
}

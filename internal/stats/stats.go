// Package stats is the repo's observability substrate: atomic
// counters, gauges, log₂-bucketed histograms, and a fixed-capacity
// trace ring, all stdlib-only and allocation-free on the hot path
// (verified by the package's ReportAllocs benchmarks and
// testing.AllocsPerRun tests). A trace ring is built only for a
// connection or server that is traced; a nil *TraceRing is tracing
// off, in every layer that holds one.
//
// The primitives are plain structs meant to be embedded by value in a
// subsystem's metrics block; incrementing one is a single atomic
// RMW. Snapshots (which may allocate) convert the live state into
// JSON-marshalable values; every subsystem exposes a typed
// *Snapshot() method and the daemons compose those into the JSON
// document served at the -stats address (see DESIGN.md §7 for the
// naming scheme and schema).
package stats

import "sync/atomic"

// Counter is a monotonically increasing event count. The zero value
// is ready to use.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current count.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Store overwrites the count; only reset paths (test scoping of
// process-wide counters) should use it.
func (c *Counter) Store(n uint64) { c.v.Store(n) }

// Gauge is an instantaneous level — queue depth, busy workers,
// window occupancy — with a high-watermark. The zero value is ready
// to use.
type Gauge struct {
	v   atomic.Int64
	max atomic.Int64
}

// Inc raises the level by one and updates the high-watermark.
func (g *Gauge) Inc() {
	n := g.v.Add(1)
	for {
		m := g.max.Load()
		if n <= m || g.max.CompareAndSwap(m, n) {
			return
		}
	}
}

// Dec lowers the level by one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Load returns the current level.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Max returns the highest level ever observed via Inc.
func (g *Gauge) Max() int64 { return g.max.Load() }

// GaugeSnapshot is the JSON form of a Gauge.
type GaugeSnapshot struct {
	Now int64 `json:"now"`
	Max int64 `json:"max"`
}

// Snapshot captures the gauge.
func (g *Gauge) Snapshot() GaugeSnapshot {
	return GaugeSnapshot{Now: g.Load(), Max: g.Max()}
}

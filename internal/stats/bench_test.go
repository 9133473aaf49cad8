package stats

import (
	"testing"
	"time"
)

// The acceptance bar for the instrumentation layer: 0 allocs/op on
// every primitive that sits on an RPC hot path.

func BenchmarkStatsCounterInc(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkStatsCounterAddParallel(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Add(8192)
		}
	})
}

func BenchmarkStatsGaugeIncDec(b *testing.B) {
	var g Gauge
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Inc()
		g.Dec()
	}
}

func BenchmarkStatsHistogramObserve(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(uint64(i))
	}
}

func BenchmarkStatsHistogramObserveDuration(b *testing.B) {
	var h Histogram
	d := 250 * time.Microsecond
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.ObserveDuration(d)
	}
}

func BenchmarkStatsHistogramObserveParallel(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		v := uint64(0)
		for pb.Next() {
			h.Observe(v)
			v += 977
		}
	})
}

func BenchmarkStatsTraceRecord(b *testing.B) {
	ring := NewTraceRing(0, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ring.Record(&Span{XID: uint32(i), Prog: 100003, Proc: 7, DurUS: 120})
	}
}

package stats

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestHistogramBucketBoundaries pins the log₂ bucketing contract:
// 0 is its own bucket, each power of two starts a new bucket, and the
// top bucket absorbs the tail.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{
		{0, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{8, 4}, {15, 4},
		{1 << 20, 21},
		{1<<21 - 1, 21},
		{1 << 62, 63},    // lower bound of the clamp bucket
		{1<<63 + 42, 63}, // would be bucket 64; clamped
		{^uint64(0), 63}, // max value clamps too
	}
	for _, c := range cases {
		if got := BucketOf(c.v); got != c.want {
			t.Errorf("BucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
	// Bounds must tile the value space: Hi(i)+1 == Lo(i+1).
	for i := 0; i < NumBuckets-1; i++ {
		_, hi := BucketBounds(i)
		lo, _ := BucketBounds(i + 1)
		if hi+1 != lo {
			t.Errorf("bucket %d hi=%d, bucket %d lo=%d: not contiguous", i, hi, i+1, lo)
		}
	}
	if _, hi := BucketBounds(NumBuckets - 1); hi != ^uint64(0) {
		t.Errorf("top bucket hi = %d, want MaxUint64", hi)
	}
	// Every observed value must fall inside its bucket's bounds.
	var h Histogram
	for _, v := range []uint64{0, 1, 3, 4, 1000, 1 << 40, ^uint64(0)} {
		h.Observe(v)
		lo, hi := BucketBounds(BucketOf(v))
		if v < lo || v > hi {
			t.Errorf("value %d outside bucket bounds [%d, %d]", v, lo, hi)
		}
	}
	if h.Count() != 7 {
		t.Fatalf("Count = %d, want 7", h.Count())
	}
}

func TestHistogramSnapshotAndQuantile(t *testing.T) {
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Observe(10) // bucket [8,15]
	}
	for i := 0; i < 10; i++ {
		h.Observe(1000) // bucket [512,1023]
	}
	s := h.Snapshot()
	if s.Count != 100 || s.Sum != 90*10+10*1000 {
		t.Fatalf("snapshot count=%d sum=%d", s.Count, s.Sum)
	}
	if len(s.Buckets) != 2 {
		t.Fatalf("want 2 populated buckets, got %v", s.Buckets)
	}
	if q := s.Quantile(0.5); q != 15 {
		t.Errorf("p50 = %d, want 15 (hi of [8,15])", q)
	}
	if q := s.Quantile(0.99); q != 1023 {
		t.Errorf("p99 = %d, want 1023 (hi of [512,1023])", q)
	}
	if (HistSnapshot{}).Quantile(0.5) != 0 {
		t.Error("empty quantile should be 0")
	}
}

// TestConcurrentIncrementAndSnapshot hammers every primitive from
// many goroutines while snapshots are taken concurrently. It is part
// of the tier-1 race target (go test -race ./internal/stats): the
// assertions matter less than the detector seeing readers and
// writers overlap.
func TestConcurrentIncrementAndSnapshot(t *testing.T) {
	const (
		workers = 8
		iters   = 2000
	)
	var (
		c       Counter
		g       Gauge
		h       Histogram
		ring    = NewTraceRing(0, nil)
		writers sync.WaitGroup
		readers sync.WaitGroup
		stop    = make(chan struct{})
	)
	// Snapshot readers racing the writers.
	for i := 0; i < 2; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = c.Load()
				_ = g.Snapshot()
				_ = h.Snapshot()
				_ = ring.Snapshot()
			}
		}()
	}
	for w := 0; w < workers; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Inc()
				h.Observe(uint64(i))
				ring.Record(&Span{XID: uint32(w*iters + i), DurUS: int64(i)})
				g.Dec()
			}
		}(w)
	}
	// Writers finish, then stop the readers.
	writers.Wait()
	close(stop)
	readers.Wait()
	if got := c.Load(); got != workers*iters {
		t.Errorf("counter = %d, want %d", got, workers*iters)
	}
	if g.Load() != 0 {
		t.Errorf("gauge settled at %d, want 0", g.Load())
	}
	if g.Max() < 1 || g.Max() > workers {
		t.Errorf("gauge max = %d, want in [1, %d]", g.Max(), workers)
	}
	if got := h.Count(); got != workers*iters {
		t.Errorf("histogram count = %d, want %d", got, workers*iters)
	}
	ts := ring.Snapshot()
	if ts.Recorded != workers*iters {
		t.Errorf("ring recorded = %d, want %d", ts.Recorded, workers*iters)
	}
	if len(ts.Spans) != TraceSpans {
		t.Errorf("ring kept %d spans, want %d", len(ts.Spans), TraceSpans)
	}
}

// TestHotPathAllocFree asserts the zero-allocation contract the
// ReportAllocs benchmarks measure, so a regression fails `go test`
// and not just an eyeballed benchmark run.
func TestHotPathAllocFree(t *testing.T) {
	var (
		c    Counter
		g    Gauge
		h    Histogram
		ring = NewTraceRing(0, nil)
	)
	cases := []struct {
		name string
		f    func()
	}{
		{"Counter.Inc", func() { c.Inc() }},
		{"Counter.Add", func() { c.Add(3) }},
		{"Gauge.Inc+Dec", func() { g.Inc(); g.Dec() }},
		{"Histogram.Observe", func() { h.Observe(12345) }},
		{"Histogram.ObserveDuration", func() { h.ObserveDuration(3 * time.Millisecond) }},
		{"TraceRing.Record", func() { ring.Record(&Span{XID: 7, DurUS: 9}) }},
	}
	for _, c := range cases {
		if n := testing.AllocsPerRun(100, c.f); n != 0 {
			t.Errorf("%s allocates %.1f per op, want 0", c.name, n)
		}
	}
}

// Tracing off is a nil ring: it records nothing and snapshots as an
// empty ring with zero stage totals — the `"trace": {"recorded": 0}`
// of an untraced daemon's stats.
func TestTraceRingDisabledIsNoop(t *testing.T) {
	var ring *TraceRing
	ring.Record(&Span{XID: 1, DurUS: 5})
	s := ring.Snapshot()
	if s.Recorded != 0 || len(s.Spans) != 0 {
		t.Fatalf("nil ring recorded %+v", s)
	}
	if b, err := json.Marshal(s); err != nil || string(b) != `{"recorded":0}` {
		t.Fatalf("nil ring snapshot JSON = %s, %v", b, err)
	}
	if st := ring.Stages(); st.Total.Count != 0 || st.Stages != nil {
		t.Fatalf("nil ring stages = %+v", st)
	}
}

func TestHTTPHandler(t *testing.T) {
	var c Counter
	c.Add(41)
	h := Handler(func() any {
		return map[string]any{"demo": map[string]uint64{"counter": c.Load()}}
	})
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got map[string]map[string]uint64
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got["demo"]["counter"] != 41 {
		t.Fatalf("stats endpoint returned %v", got)
	}
	// pprof is mounted.
	resp2, err := http.Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("pprof cmdline status %d", resp2.StatusCode)
	}
}

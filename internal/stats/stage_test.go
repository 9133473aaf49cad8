package stats

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// A nil StageClock must absorb every call — that is the whole
// tracing-off contract of the instrumentation points.
func TestStageClockNilSafe(t *testing.T) {
	var c *StageClock
	c.End(StageVFS, c.Now())
	c.Add(StageFsync, 100)
	c.MarkWriteAt(time.Now())
	c.MarkArrive(10)
	c.RestartAt(time.Now())
	if c.Get(StageVFS) != 0 {
		t.Fatal("nil clock returned nonzero stage")
	}
	if c.FinishClient(5) != nil || c.FinishServer() != nil {
		t.Fatal("nil clock finished to a span")
	}
}

func TestStageClockLedger(t *testing.T) {
	c := NewStageClock()
	c.Add(StageCliEncode, 3_000_000) // 3ms
	c.Add(StageCliSeal, 2_000_000)
	c.Add(StageCliEncode, 1_000_000) // accumulates
	if got := c.Get(StageCliEncode); got != 4_000_000 {
		t.Fatalf("Get(cli_encode) = %d, want 4ms", got)
	}
	c.Add(StageVFS, -5) // negative charges are dropped
	if c.Get(StageVFS) != 0 {
		t.Fatal("negative Add was recorded")
	}
	c.MarkWriteAt(time.Now())
	time.Sleep(2 * time.Millisecond)
	c.MarkArrive(1_000_000)
	sp := c.FinishClient(500_000)
	if sp.Stages[StageCliEncode] != 4000 {
		t.Fatalf("span cli_encode = %dus, want 4000", sp.Stages[StageCliEncode])
	}
	// MarkArrive moves the open work out of wire and into cli_decode,
	// which also absorbs the decode time handed to FinishClient.
	if sp.Stages[StageCliDecode] != 1500 {
		t.Fatalf("span cli_decode = %dus, want 1500", sp.Stages[StageCliDecode])
	}
	if sp.Stages[StageWire] <= 0 {
		t.Fatal("wire stage empty after MarkWriteAt/MarkArrive")
	}
	if sp.DurUS <= 0 {
		t.Fatal("span total empty")
	}
	if sp.Start == 0 {
		t.Fatal("wall-clock start not stamped")
	}
}

func TestStageClockServerTotalIncludesOpen(t *testing.T) {
	c := NewStageClock()
	c.RestartAt(time.Now().Add(-10 * time.Millisecond))
	c.Add(StageSrvOpen, 5_000_000)
	sp := c.FinishServer()
	// total = open work + time since the (re-anchored) record read.
	if sp.DurUS < 14_000 {
		t.Fatalf("server total = %dus, want >= 15ms-ish", sp.DurUS)
	}
}

func TestStageSetRecordAndSnapshot(t *testing.T) {
	var s StageSet
	sp := &Span{DurUS: 1000}
	sp.Stages[StageVFS] = 600
	sp.Stages[StageFsync] = 400
	s.Record(sp)
	s.Record(sp)
	snap := s.Snapshot()
	if snap.Total.Count != 2 || snap.Total.SumUS != 2000 {
		t.Fatalf("total = %+v, want count 2 sum 2000", snap.Total)
	}
	if st, ok := snap.Stages["vfs"]; !ok || st.Count != 2 || st.SumUS != 1200 {
		t.Fatalf("vfs stage = %+v", snap.Stages["vfs"])
	}
	// Stages the span never touched must not appear at all.
	if _, ok := snap.Stages["cli_seal"]; ok {
		t.Fatal("untouched stage appeared in snapshot")
	}
	if st := snap.Stages["fsync"]; st.P50 == 0 {
		t.Fatal("derived p50 missing from stage snapshot")
	}
	tbl := snap.Table()
	if !strings.Contains(tbl, "fsync") || !strings.Contains(tbl, "p99_us") {
		t.Fatalf("table missing rows/header:\n%s", tbl)
	}
}

func TestSpanWaterfall(t *testing.T) {
	sp := Span{}
	sp.Stages[StageVFS] = 120
	sp.Stages[StageFsync] = 3400
	got := sp.Waterfall()
	if got != "vfs=120us fsync=3400us" {
		t.Fatalf("waterfall = %q", got)
	}
}

// The ring must wrap: after more records than capacity, the snapshot
// holds the most recent capacity spans, oldest first.
func TestTraceRingWraparound(t *testing.T) {
	r := NewTraceRing(4)
	r.SetEnabled(true)
	defer r.SetEnabled(false)
	for i := 1; i <= 10; i++ {
		r.Record(Span{XID: uint32(i)})
	}
	snap := r.Snapshot()
	if snap.Recorded != 10 || len(snap.Spans) != 4 {
		t.Fatalf("recorded=%d spans=%d, want 10/4", snap.Recorded, len(snap.Spans))
	}
	for i, sp := range snap.Spans {
		if want := uint32(7 + i); sp.XID != want {
			t.Fatalf("span[%d].XID = %d, want %d", i, sp.XID, want)
		}
	}
}

// Concurrent Record, Snapshot, and enable/disable toggling — the
// -race run is the assertion.
func TestTraceRingConcurrentRecordSnapshotToggle(t *testing.T) {
	r := NewTraceRing(8)
	r.SetEnabled(true)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				sp := Span{XID: uint32(g<<16 | i), DurUS: int64(i)}
				sp.Stages[StageVFS] = int64(i)
				r.Record(sp)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			r.Snapshot()
			r.SetEnabled(i%2 == 0)
		}
		close(stop)
	}()
	wg.Wait()
}

func TestTraceRingSlowLog(t *testing.T) {
	r := NewTraceRing(4)
	r.SetEnabled(true)
	defer r.SetEnabled(false)
	var mu sync.Mutex
	var got []Span
	r.SetSlowLog(time.Millisecond, func(sp Span) {
		mu.Lock()
		got = append(got, sp)
		mu.Unlock()
	})
	r.Record(Span{XID: 1, DurUS: 500})  // below threshold
	r.Record(Span{XID: 2, DurUS: 1000}) // at threshold
	r.Record(Span{XID: 3, DurUS: 9000})
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 || got[0].XID != 2 || got[1].XID != 3 {
		t.Fatalf("slow log got %+v, want xids 2,3", got)
	}
}

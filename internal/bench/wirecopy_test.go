package bench

import (
	"testing"

	"repro/internal/stats"
)

// TestFig5WireCopyInvariant asserts the zero-copy wire path's headline
// claim (DESIGN.md §12) from the process-wide wire-copy counters over
// the Figure 5 throughput workload on the full SFS stack (encryption
// on): each 8KB payload byte is memcpy'd at most once end to end — the
// single fused copy+encrypt in the seal. (The flat funnel this replaced
// paid at least 3 copies per byte; that row is historical, EXPERIMENTS.md
// Figure 5.) CI's bench-smoke step runs exactly this test.
func TestFig5WireCopyInvariant(t *testing.T) {
	measure := func(t *testing.T) stats.WireCopyStats {
		st := buildOrSkip(t, KindSFS)
		// Reset after Build so handshake and mount traffic (none of it
		// payload-class anyway) cannot blur the workload's ratio.
		stats.ResetWireCopy()
		if _, err := ThroughputMicro(st, 4<<20); err != nil {
			t.Fatal(err)
		}
		return stats.WireCopySnapshot()
	}
	t.Run("gather", func(t *testing.T) {
		s := measure(t)
		if s.PayloadBytes == 0 {
			t.Fatal("workload moved no payload-class bytes; counters are not wired up")
		}
		if s.CopyRatio > 1.01 {
			t.Errorf("copy ratio %.3f (copied %d / payload %d), want <= 1.01",
				s.CopyRatio, s.BytesCopied, s.PayloadBytes)
		}
		// Per-record view: every payload-bearing record must land in
		// the <=1-copies bucket of the histogram.
		for _, b := range s.CopiesPerPayload.Buckets {
			if b.Lo > 1 {
				t.Errorf("%d records observed %d..%d copies per payload byte, want <= 1",
					b.Count, b.Lo, b.Hi)
			}
		}
	})
}

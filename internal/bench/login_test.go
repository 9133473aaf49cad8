package bench

import (
	"testing"
)

// TestFigLoginShape is the CI login-storm smoke: the quick figure must
// produce both reconnect rates, do zero Rabin decrypts in the resumed
// phase (the whole point of resumption), resume faster than it fully
// negotiates, and carry the eks ablation.
func TestFigLoginShape(t *testing.T) {
	fig, err := FigLogin(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	ls := fig.Login
	if ls == nil {
		t.Fatal("figure has no login block")
	}
	if ls.RabinDecryptsResume != 0 {
		t.Fatalf("resumed phase performed %d Rabin decrypts, want 0", ls.RabinDecryptsResume)
	}
	if want := uint64(2 * ls.FullConns); ls.RabinDecryptsFull != want {
		t.Fatalf("full phase performed %d Rabin decrypts, want %d (2 per in-process connection)", ls.RabinDecryptsFull, want)
	}
	if ls.FullPerSec <= 0 || ls.ResumedPerSec <= 0 {
		t.Fatalf("non-positive rates: full=%.1f resumed=%.1f", ls.FullPerSec, ls.ResumedPerSec)
	}
	if ls.Speedup <= 1 {
		t.Fatalf("resumption slower than full negotiation (speedup %.2f)", ls.Speedup)
	}
	if ls.Handshakes.Resumed != uint64(ls.ResumedConns) {
		t.Fatalf("server resumed %d sessions, want %d", ls.Handshakes.Resumed, ls.ResumedConns)
	}
	if ls.MBPer10kSessions <= 0 {
		t.Fatalf("per-session memory %.3f MB/10k, want > 0", ls.MBPer10kSessions)
	}
	if len(ls.Eks) != 2 {
		t.Fatalf("quick eks ablation has %d points, want 2", len(ls.Eks))
	}
	// The work factor is the knob: each point ran every exchange to a
	// confirmed SRP proof at the cost its user record carries. (That a
	// unit of cost doubles the work is pinned where it is exact,
	// blowfish.TestSaltedScheduleIsTwoToTheCostRounds; two wall-clock
	// rates a few percent apart say nothing on a busy machine.)
	for i, wantCost := range []uint{2, 4} {
		if p := ls.Eks[i]; p.Cost != wantCost || p.Exchanges != 5 || p.PerSec <= 0 {
			t.Fatalf("eks point %d: cost %d, %d exchanges, %.1f auth/s; want cost %d, 5 exchanges",
				i, p.Cost, p.Exchanges, p.PerSec, wantCost)
		}
	}
	// Rows: 4 storm rows plus one per eks point.
	if want := 4 + len(ls.Eks); len(fig.Rows) != want {
		t.Fatalf("figure has %d rows, want %d", len(fig.Rows), want)
	}
	if fig.Slug() != "login-storm" {
		t.Fatalf("slug %q, want login-storm", fig.Slug())
	}
}

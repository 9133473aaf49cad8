package secchan

import (
	"testing"

	"repro/internal/stats"
	"repro/internal/sunrpc"
	"repro/internal/xdr"
)

// Stage timing on the seal path must cost nothing until TimeWork (one
// atomic load, no clock read, no accumulator write) and must stay
// allocation-free once it is on — the timing is two monotonic reads
// and one atomic add. Hard fail, like the other zero-alloc tests; the
// CI latency smoke runs this as its overhead assertion.
func TestSealPathStageTimingZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	cw, _, wire := gatherPair(t)
	payload := make([]byte, 8192)
	hdr := make([]byte, 96)
	segs := [][]byte{hdr, payload}
	if _, _, err := cw.WriteSegments(segs); err != nil { // warm scratch buffers
		t.Fatal(err)
	}

	for _, on := range []bool{false, true} {
		if on {
			cw.TimeWork()
		}
		before := cw.SealWorkNS()
		allocs := testing.AllocsPerRun(100, func() {
			wire.Buffer.Reset()
			if _, _, err := cw.WriteSegments(segs); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("timed=%v: seal path allocated %.1f times per record, want 0", on, allocs)
		}
		if on && cw.SealWorkNS() == before {
			t.Fatal("timed: seal-work accumulator did not advance")
		}
		if !on && cw.SealWorkNS() != before {
			t.Fatal("untimed: seal-work accumulator advanced")
		}
	}
}

// TestWorkTimingIsPerConnection: tracing one connection times that
// connection's channels and no other. A traced pair (a client and a
// server each built with a trace ring) and an untraced pair run side
// by side; the untraced channels' ledgers stay at zero.
func TestWorkTimingIsPerConnection(t *testing.T) {
	echo := func(proc uint32, _ sunrpc.OpaqueAuth, args *xdr.Decoder) (interface{}, error) {
		var s string
		if err := args.Decode(&s); err != nil {
			return nil, sunrpc.ErrGarbageArgs
		}
		return s, nil
	}
	serve := func(seed string, traced bool) (cc, sc *Conn) {
		cc, sc, _, _ = handshakePair(t, seed)
		srv := sunrpc.NewServer()
		srv.Register(7, 1, echo)
		var trace *stats.TraceRing
		if traced {
			srv.SetMetrics(&sunrpc.Metrics{Trace: stats.NewTraceRing(0, nil)})
			trace = stats.NewTraceRing(0, nil)
		}
		go srv.ServeConn(sc) //nolint:errcheck
		cl := sunrpc.NewPeer(cc, nil, trace)
		t.Cleanup(func() { cl.Close() })
		for i := 0; i < 4; i++ {
			var out string
			if err := cl.Call(7, 1, 0, sunrpc.NoAuth(), "timed?", &out); err != nil {
				t.Fatal(err)
			}
		}
		return cc, sc
	}
	tc, ts := serve("traced", true)
	uc, us := serve("untraced", false)
	for name, c := range map[string]*Conn{"traced client": tc, "traced server": ts} {
		if c.SealWorkNS() == 0 || c.OpenWorkNS() == 0 {
			t.Errorf("%s: seal %d ns, open %d ns; want both timed", name, c.SealWorkNS(), c.OpenWorkNS())
		}
	}
	for name, c := range map[string]*Conn{"untraced client": uc, "untraced server": us} {
		if c.SealWorkNS() != 0 || c.OpenWorkNS() != 0 {
			t.Errorf("%s: seal %d ns, open %d ns; want 0 beside a traced connection", name, c.SealWorkNS(), c.OpenWorkNS())
		}
	}
}

package sunrpc

import (
	"encoding/json"
	"net"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/xdr"
)

// timedConn is a plain transport that counts TimeWork calls: a peer
// on a traced connection starts its transport's work ledgers, one on
// an untraced connection never does.
type timedConn struct {
	net.Conn
	timed atomic.Int32
}

func (c *timedConn) TimeWork()         { c.timed.Add(1) }
func (c *timedConn) SealWorkNS() int64 { return 0 }
func (c *timedConn) OpenWorkNS() int64 { return 0 }

// TestUntracedServerHoldsNoTracer: tracing is decided when a server is
// built, and an untraced one builds no ring and no stage set — every
// served connection and every mount's callback server is one. Its
// metrics still read as an empty trace with zero stage totals.
func TestUntracedServerHoldsNoTracer(t *testing.T) {
	const n = 100
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		if NewServer().Metrics().Trace != nil {
			t.Fatal("an untraced server holds a trace ring")
		}
	}
	runtime.ReadMemStats(&m1)
	if per := (m1.TotalAlloc - m0.TotalAlloc) / n; per > 1<<10 {
		t.Fatalf("NewServer allocates %d B, want <= 1 KiB", per)
	}

	b, err := json.Marshal(NewServer().Metrics().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"trace":{"recorded":0}`, `"total":{"count":0,`} {
		if !strings.Contains(string(b), want) {
			t.Errorf("untraced metrics %s lack %s", b, want)
		}
	}

	c1, c2 := net.Pipe()
	conn := &timedConn{Conn: c2}
	srv := NewServer()
	srv.Register(7, 1, func(uint32, OpaqueAuth, *xdr.Decoder) (interface{}, error) { return nil, nil })
	peer := NewPeer(conn, srv, nil)
	defer peer.Close()
	cl := NewClient(c1)
	defer cl.Close()
	if err := cl.Call(7, 1, 0, NoAuth(), nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := conn.timed.Load(); got != 0 {
		t.Fatalf("an untraced peer started its transport's timing %d times", got)
	}
}

package sunrpc

import (
	"encoding/binary"
	"net"
	"testing"

	"repro/internal/xdr"
)

// callRecord hand-rolls one framed call so tests can watch raw reply
// ordering on the wire, below the XID-matching of Client.
func callRecord(t *testing.T, xid, proc uint32) []byte {
	t.Helper()
	e := &xdr.Encoder{}
	e.PutUint32(xid)
	e.PutUint32(msgCall)
	if err := e.Encode(callHeader{
		RPCVers: RPCVersion,
		Prog:    testProg,
		Vers:    testVers,
		Proc:    proc,
		Cred:    NoAuth(),
		Verf:    NoAuth(),
	}); err != nil {
		t.Fatal(err)
	}
	return e.Bytes()
}

// gateServer registers a handler where proc 10 blocks until gate is
// closed and proc 11 returns immediately.
func gateServer(t *testing.T) (*Server, chan struct{}) {
	t.Helper()
	gate := make(chan struct{})
	srv := NewServer()
	srv.Register(testProg, testVers, func(proc uint32, cred OpaqueAuth, args *xdr.Decoder) (interface{}, error) {
		switch proc {
		case 10:
			<-gate
			return uint32(10), nil
		case 11:
			return uint32(11), nil
		}
		return nil, ErrProcUnavail
	})
	return srv, gate
}

func replyXID(t *testing.T, conn net.Conn) uint32 {
	t.Helper()
	rec, err := ReadRecord(conn)
	if err != nil {
		t.Fatal(err)
	}
	return binary.BigEndian.Uint32(rec)
}

// TestOutOfOrderReplies: with concurrent dispatch, a fast call issued
// after a stalled one overtakes it on the wire — XIDs disambiguate.
func TestOutOfOrderReplies(t *testing.T) {
	srv, gate := gateServer(t)
	c1, c2 := net.Pipe()
	defer c1.Close()
	go srv.ServeConn(c2)                                          //nolint:errcheck
	if err := WriteRecord(c1, callRecord(t, 1, 10)); err != nil { // stalls
		t.Fatal(err)
	}
	if err := WriteRecord(c1, callRecord(t, 2, 11)); err != nil { // fast
		t.Fatal(err)
	}
	if xid := replyXID(t, c1); xid != 2 {
		t.Fatalf("first reply xid = %d, want the fast call (2)", xid)
	}
	close(gate)
	if xid := replyXID(t, c1); xid != 1 {
		t.Fatalf("second reply xid = %d, want the stalled call (1)", xid)
	}
}

// TestSerialWorkers: a bound of one serves strictly serially.
func TestSerialWorkers(t *testing.T) {
	srv := NewServer()
	srv.Register(testProg, testVers, echoHandler)
	srv.workers = 1
	c1, c2 := net.Pipe()
	go srv.ServeConn(c2) //nolint:errcheck
	cl := NewClient(c1)
	defer cl.Close()
	var res echoRes
	if err := cl.Call(testProg, testVers, 1, NoAuth(), echoArgs{N: 1, Msg: "serial"}, &res); err != nil {
		t.Fatal(err)
	}
	if res.N != 2 || res.Msg != "serial" {
		t.Fatalf("got %+v", res)
	}
}

// TestConcurrentCallsOneClient issues many concurrent calls through
// one Client over one connection; every reply must match its call.
func TestConcurrentCallsOneClient(t *testing.T) {
	cl, _ := newTestPair(t)
	const n = 64
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		i := i
		go func() {
			var res echoRes
			err := cl.Call(testProg, testVers, 1, NoAuth(), echoArgs{N: uint32(i), Msg: "m"}, &res)
			if err == nil && res.N != uint32(i)+1 {
				err = errReplyMismatch{want: uint32(i) + 1, got: res.N}
			}
			errs <- err
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

type errReplyMismatch struct{ want, got uint32 }

func (e errReplyMismatch) Error() string {
	return "reply mismatch"
}

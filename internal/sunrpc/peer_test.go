package sunrpc

import (
	"net"
	"testing"
	"time"

	"repro/internal/xdr"
)

func TestUnixAuthRoundTrip(t *testing.T) {
	a := UnixAuth(1000, []uint32{1000, 20, 5})
	uid, gids, ok := ParseUnixAuth(a)
	if !ok || uid != 1000 || len(gids) != 3 || gids[1] != 20 {
		t.Fatalf("parsed %d %v %v", uid, gids, ok)
	}
	if _, _, ok := ParseUnixAuth(NoAuth()); ok {
		t.Fatal("AUTH_NONE parsed as unix")
	}
	if _, _, ok := ParseUnixAuth(OpaqueAuth{Flavor: AuthUnix, Body: []byte{1}}); ok {
		t.Fatal("malformed body parsed")
	}
	// Nil group list encodes as empty.
	b := UnixAuth(5, nil)
	_, gids, ok = ParseUnixAuth(b)
	if !ok || len(gids) != 0 {
		t.Fatalf("nil gids: %v %v", gids, ok)
	}
}

func TestSFSAuthRoundTrip(t *testing.T) {
	if got := AuthNumber(SFSAuth(777)); got != 777 {
		t.Fatalf("AuthNumber = %d", got)
	}
	if got := AuthNumber(NoAuth()); got != 0 {
		t.Fatalf("anonymous AuthNumber = %d", got)
	}
	if got := AuthNumber(OpaqueAuth{Flavor: AuthSFS, Body: []byte{1}}); got != 0 {
		t.Fatalf("short body AuthNumber = %d", got)
	}
}

// TestDuplexPeers verifies that both ends of one connection can serve
// and call simultaneously — the transport shape of SFS's invalidation
// callbacks.
func TestDuplexPeers(t *testing.T) {
	mkServer := func(tag string) *Server {
		s := NewServer()
		s.Register(7, 1, func(proc uint32, _ OpaqueAuth, args *xdr.Decoder) (interface{}, error) {
			var in string
			if err := args.Decode(&in); err != nil {
				return nil, ErrGarbageArgs
			}
			return tag + ":" + in, nil
		})
		return s
	}
	c1, c2 := net.Pipe()
	left := NewPeer(c1, mkServer("left"), nil)
	right := NewPeer(c2, mkServer("right"), nil)
	defer left.Close()
	defer right.Close()

	var out string
	if err := left.Call(7, 1, 0, NoAuth(), "ping", &out); err != nil {
		t.Fatal(err)
	}
	if out != "right:ping" {
		t.Fatalf("left->right got %q", out)
	}
	if err := right.Call(7, 1, 0, NoAuth(), "pong", &out); err != nil {
		t.Fatal(err)
	}
	if out != "left:pong" {
		t.Fatalf("right->left got %q", out)
	}
}

func TestDoneSignalled(t *testing.T) {
	c1, c2 := net.Pipe()
	cl := NewClient(c1)
	select {
	case <-cl.Done():
		t.Fatal("Done closed prematurely")
	default:
	}
	c2.Close()
	select {
	case <-cl.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("Done not closed after peer hangup")
	}
}

func TestPureClientIgnoresIncomingCalls(t *testing.T) {
	c1, c2 := net.Pipe()
	cl := NewClient(c1) // no server registered
	defer cl.Close()
	// An unsolicited call arrives; the client must not crash, and
	// subsequent traffic still works.
	go func() {
		e := &xdr.Encoder{}
		e.PutUint32(99)            // xid
		e.PutUint32(0)             // msgCall
		WriteRecord(c2, e.Bytes()) //nolint:errcheck
	}()
	time.Sleep(20 * time.Millisecond)
	select {
	case <-cl.Done():
		t.Fatal("client died on unsolicited call")
	default:
	}
}

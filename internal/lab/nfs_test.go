package lab

import (
	"bytes"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/nfs"
	"repro/internal/sunrpc"
	"repro/internal/vfs"
)

// byteCount is a World transport that counts the bytes each connection
// end it is handed moves in each direction. Each end gets a deadline,
// so a call lost to a desynchronised transport fails the test instead
// of hanging it.
type byteCount struct {
	mu   sync.Mutex
	ends []*countedEnd
}

type countedEnd struct {
	net.Conn
	sent, rcvd atomic.Int64
}

func (c *countedEnd) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.sent.Add(int64(n))
	return n, err
}

func (c *countedEnd) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.rcvd.Add(int64(n))
	return n, err
}

func (bc *byteCount) wrap(c net.Conn) net.Conn {
	c.SetDeadline(time.Now().Add(30 * time.Second)) //nolint:errcheck // a socket takes a deadline
	ce := &countedEnd{Conn: c}
	bc.mu.Lock()
	bc.ends = append(bc.ends, ce)
	bc.mu.Unlock()
	return ce
}

// clientEnd returns the end that dialed: its peer is the other end's
// local address.
func (bc *byteCount) clientEnd(t *testing.T) *countedEnd {
	t.Helper()
	bc.mu.Lock()
	defer bc.mu.Unlock()
	if len(bc.ends) != 2 {
		t.Fatalf("the transport was handed %d connection ends, want 2", len(bc.ends))
	}
	a, b := bc.ends[0], bc.ends[1]
	if a.RemoteAddr().String() == b.LocalAddr().String() {
		return a
	}
	return b
}

func rootAuth() sunrpc.OpaqueAuth { return sunrpc.UnixAuth(0, []uint32{0}) }

// TestServeNFS: the plain NFS 3 baseline over UDP and over TCP is one
// session on the ordinary peer loop, both of its ends pass through the
// world's transport, and on UDP a datagram that is no whole record is
// dropped alone — the next call is answered.
func TestServeNFS(t *testing.T) {
	for _, network := range []string{"udp", "tcp"} {
		t.Run(network, func(t *testing.T) {
			wire := &byteCount{}
			w, err := NewWorldOver("nfs-"+network, wire.wrap)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			fs := vfs.New()
			srv, cl, err := w.ServeNFS(fs, network, nfs.ClientConfig{Auth: rootAuth})
			if err != nil {
				t.Fatal(err)
			}
			root, _, err := cl.MountRoot()
			if err != nil {
				t.Fatal(err)
			}
			fh, _, err := cl.Create(root, "f", 0o644, false)
			if err != nil {
				t.Fatal(err)
			}
			data := bytes.Repeat([]byte(network), 3000)
			if _, err := cl.Write(fh, 0, data, nfs.Unstable); err != nil {
				t.Fatal(err)
			}
			if got, _, err := cl.Read(fh, 0, uint32(len(data))); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("read back %d bytes, err=%v", len(got), err)
			}
			if verf, err := cl.Commit(fh); err != nil || verf != fs.Verifier() {
				t.Fatalf("commit: verifier %x (boot %x), err=%v", verf, fs.Verifier(), err)
			}
			nonOwner := cl.WithAuth("nonowner", func() sunrpc.OpaqueAuth { return sunrpc.UnixAuth(40000, []uint32{40000}) })
			uid := uint32(12345)
			if _, err := nonOwner.SetAttr(nfs.SetAttrArgs{FH: fh, SetUID: &uid}); err == nil {
				t.Fatal("a non-owner chown succeeded")
			}

			end := wire.clientEnd(t)
			for _, e := range wire.ends {
				if e.sent.Load() == 0 || e.rcvd.Load() == 0 {
					t.Fatalf("the transport saw %d bytes sent and %d received on one end", e.sent.Load(), e.rcvd.Load())
				}
			}
			if calls, served := cl.Stats().Calls, srv.StatsSnapshot().RPC.Calls; calls != served {
				t.Fatalf("the client made %d calls, the session dispatched %d", calls, served)
			}
			if network != "udp" {
				return
			}
			before := srv.StatsSnapshot().RPC.Calls
			// A first fragment of a record that never ends: on a stream
			// it would swallow the next call.
			if _, err := end.Write([]byte{0, 0, 0, 8, 1, 2, 3, 4, 5, 6, 7, 8}); err != nil {
				t.Fatal(err)
			}
			if _, err := cl.GetAttr(fh); err != nil {
				t.Fatalf("the call after a garbage datagram: %v", err)
			}
			if got := srv.StatsSnapshot().RPC.Calls - before; got != 1 {
				t.Fatalf("the server dispatched %d calls for one GETATTR after a garbage datagram", got)
			}
		})
	}
}

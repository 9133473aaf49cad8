package lab

import (
	"bytes"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/crypto/prng"
	"repro/internal/nfs"
	"repro/internal/secchan"
	"repro/internal/server"
	"repro/internal/vfs"
)

// wireTap keeps every byte a client's one connection carried, a
// direction to a buffer, so a pattern cut by TCP segmentation is still
// found whole.
type wireTap struct {
	mu         sync.Mutex
	sent, rcvd bytes.Buffer
}

func (t *wireTap) saw(p []byte) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return bytes.Contains(t.sent.Bytes(), p) || bytes.Contains(t.rcvd.Bytes(), p)
}

type tappedConn struct {
	net.Conn
	tap *wireTap
}

func (c tappedConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.tap.mu.Lock()
	c.tap.sent.Write(p[:n])
	c.tap.mu.Unlock()
	return n, err
}

func (c tappedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.tap.mu.Lock()
	c.tap.rcvd.Write(p[:n])
	c.tap.mu.Unlock()
	return n, err
}

// marker is 4 KiB no cipher stream will produce by accident.
var marker = prng.NewSeeded([]byte("lab-wire-marker")).Bytes(4096)

// configuredWorld is one world serving one file system with the given
// channel mode.
func configuredWorld(t *testing.T, seed string, plaintext bool) (*World, *Served) {
	t.Helper()
	w, err := NewWorld(seed)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	s, err := w.ServeFSOn(server.ServedConfig{Location: seed + ".example.com", LeaseMS: 30000, NoEncryption: plaintext})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.FS.MkdirAll(vfs.Cred{}, "home", 0o777); err != nil {
		t.Fatal(err)
	}
	return w, s
}

// writeThenRead makes a fresh client of w in the given mode, writes 16
// markers to a new file, reads them back over the wire (no data cache),
// closes the client, and reports whether the marker crossed its
// connection in the clear. Errors go to t.Error: it runs on goroutines.
func writeThenRead(t *testing.T, w *World, s *Served, name string, plaintext bool) (sawMarker bool) {
	tap := &wireTap{}
	cl, err := w.NewClient(client.Config{
		EnhancedCaching: true,
		NoEncryption:    plaintext,
		DataCacheBytes:  -1,
		Dial: func(loc string) (net.Conn, error) {
			c, err := w.Dial(loc)
			if err != nil {
				return nil, err
			}
			return tappedConn{Conn: c, tap: tap}, nil
		},
	})
	if err != nil {
		t.Error(err)
		return false
	}
	w.NewAnonymousUser(cl, "anon")
	path := s.Path.String() + "/home/" + name
	data := bytes.Repeat(marker, 16)
	if err := cl.WriteFile("anon", path, data); err != nil {
		t.Errorf("%s: write: %v", name, err)
		return false
	}
	got, err := cl.ReadFile("anon", path)
	if err != nil || !bytes.Equal(got, data) {
		t.Errorf("%s: read back %d bytes, err=%v", name, len(got), err)
	}
	cl.Close()
	return tap.saw(marker)
}

// TestTwoConfigurationsOneProcess: an encrypted and a plaintext stack
// run the same workload at the same time, each in its own mode; the
// mode belongs to the stack, so closing one changes nothing in the
// other.
func TestTwoConfigurationsOneProcess(t *testing.T) {
	encW, encS := configuredWorld(t, "enc", false)
	plainW, plainS := configuredWorld(t, "plain", true)

	var wg sync.WaitGroup
	var encSaw, plainSaw [4]bool
	for i := range encSaw {
		wg.Add(2)
		go func() {
			defer wg.Done()
			encSaw[i] = writeThenRead(t, encW, encS, "f"+string(rune('0'+i)), false)
		}()
		go func() {
			defer wg.Done()
			plainSaw[i] = writeThenRead(t, plainW, plainS, "f"+string(rune('0'+i)), true)
		}()
	}
	wg.Wait()
	for i := range encSaw {
		if encSaw[i] {
			t.Errorf("run %d: the marker crossed the encrypted stack's wire in the clear", i)
		}
		if !plainSaw[i] {
			t.Errorf("run %d: the marker never crossed the plaintext stack's wire in the clear", i)
		}
	}

	plainW.Close()
	if writeThenRead(t, encW, encS, "after-plain-closed", false) {
		t.Error("closing the plaintext stack put the encrypted one in the clear")
	}
	plain2W, plain2S := configuredWorld(t, "plain2", true)
	encW.Close()
	if !writeThenRead(t, plain2W, plain2S, "after-enc-closed", true) {
		t.Error("closing the encrypted stack made the plaintext one encrypt")
	}
}

// TestModeMismatchFailsClosed: a client and a server that disagree on
// encryption get nowhere — the first record fails the channel's length
// bound or MAC on the server, which counts it and hangs up before any
// call is dispatched.
func TestModeMismatchFailsClosed(t *testing.T) {
	for _, plainClient := range []bool{true, false} {
		seed := "mismatch-plain-server"
		if plainClient {
			seed = "mismatch-plain-client"
		}
		w, s := configuredWorld(t, seed, !plainClient)
		cl, err := w.NewClient(client.Config{EnhancedCaching: true, NoEncryption: plainClient})
		if err != nil {
			t.Fatal(err)
		}
		w.NewAnonymousUser(cl, "anon")
		drops := secchan.StatsSnapshot().MACDrops
		if _, err := cl.ReadDir("anon", s.Path.String()); err == nil {
			t.Fatalf("plain client %v: a mount across mismatched modes succeeded", plainClient)
		}
		if got := secchan.StatsSnapshot().MACDrops; got == drops {
			t.Fatalf("plain client %v: the failed record was not counted", plainClient)
		}
		st, ok := w.Server.NFSStats(s.Location)
		if !ok || st.RPC.Calls != 0 {
			t.Fatalf("plain client %v: the server dispatched %d calls from a mismatched channel", plainClient, st.RPC.Calls)
		}
	}
}

// wireCount is a World transport that counts the writes on every
// connection it is handed; the secure channel sends one record per
// write, so between two snapshots a direction's writes are its
// messages.
type wireCount struct {
	mu    sync.Mutex
	conns []*countedConn
}

type countedConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countedConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

func (wc *wireCount) wrap(c net.Conn) net.Conn {
	cc := &countedConn{Conn: c}
	wc.mu.Lock()
	wc.conns = append(wc.conns, cc)
	wc.mu.Unlock()
	return cc
}

// writes totals the connections by end: the ones the master accepted
// (their local address is its listener's) send toward the client.
func (wc *wireCount) writes(w *World) (toServer, toClient int64) {
	w.mu.Lock()
	master := w.listeners[0].Addr().String()
	w.mu.Unlock()
	wc.mu.Lock()
	defer wc.mu.Unlock()
	for _, c := range wc.conns {
		if c.LocalAddr().String() == master {
			toClient += c.writes.Load()
		} else {
			toServer += c.writes.Load()
		}
	}
	return toServer, toClient
}

// TestCloseReleasesEverything: a world's transport sees both ends of
// every connection — each RPC is one message out through the dialed
// end and one back through the accepted end, which is what lets the
// benchmark harness charge its hardware model in both directions —
// and closing the world ends its clients' connections, and with them
// the server's sessions and their workers, the NFS baseline's over UDP
// and TCP included: twenty worlds later the process is where it
// started.
func TestCloseReleasesEverything(t *testing.T) {
	settle := func(what string, ok func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !ok(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s did not settle", what)
			}
		}
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		wire := &wireCount{}
		w, err := NewWorldOver("close", wire.wrap)
		if err != nil {
			t.Fatal(err)
		}
		s, err := w.ServeFS("close.example.com", 30000)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.FS.MkdirAll(vfs.Cred{}, "home", 0o777); err != nil {
			t.Fatal(err)
		}
		cl, err := w.NewClient(client.Config{EnhancedCaching: true, DataCacheBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		w.NewAnonymousUser(cl, "anon")
		root := s.Path.String()
		if _, err := cl.ReadDir("anon", root); err != nil {
			t.Fatal(err)
		}
		if active := w.Server.StatsSnapshot().Active.Now; active != 1 {
			t.Fatalf("world %d: %d active connections with one mount up, want 1", i, active)
		}

		// The mount is up: from here every message is an RPC.
		st0, err := cl.Stats("anon", root)
		if err != nil {
			t.Fatal(err)
		}
		out0, back0 := wire.writes(w)
		if err := cl.WriteFile("anon", root+"/home/f", marker); err != nil {
			t.Fatal(err)
		}
		if got, err := cl.ReadFile("anon", root+"/home/f"); err != nil || !bytes.Equal(got, marker) {
			t.Fatalf("read back %d bytes, err=%v", len(got), err)
		}
		st1, err := cl.Stats("anon", root)
		if err != nil {
			t.Fatal(err)
		}
		out1, back1 := wire.writes(w)
		if rpcs := int64(st1.Calls - st0.Calls); rpcs == 0 || out1-out0 != rpcs || back1-back0 != rpcs {
			t.Fatalf("world %d: %d RPCs, but the transport saw %d messages to the server and %d back",
				i, rpcs, out1-out0, back1-back0)
		}
		var nfsClients []*nfs.Client
		for _, network := range []string{"udp", "tcp"} {
			_, ncl, err := w.ServeNFS(vfs.New(), network, nfs.ClientConfig{Auth: rootAuth})
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := ncl.MountRoot(); err != nil {
				t.Fatalf("world %d: NFS over %s: %v", i, network, err)
			}
			nfsClients = append(nfsClients, ncl)
		}

		w.Close()
		w.Close() // idempotent
		settle("the server's active-connection gauge", func() bool { return w.Server.StatsSnapshot().Active.Now == 0 })
		if _, err := cl.ReadDir("anon", root); err == nil {
			t.Fatal("a closed client mounted again")
		}
		for _, ncl := range nfsClients {
			if _, _, err := ncl.MountRoot(); err == nil {
				t.Fatal("a closed NFS client mounted again")
			}
		}
	}
	settle("the goroutine count", func() bool { return runtime.NumGoroutine() <= before })
}

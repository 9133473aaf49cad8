package netsim

import (
	"net"
	"testing"
	"time"
)

func TestProfileCost(t *testing.T) {
	p := NFSUDP()
	// One empty message: just the per-message cost.
	if got := p.Cost(0); got != UDPPerMessage {
		t.Fatalf("Cost(0) = %v", got)
	}
	// 8 KB at 80 ns/byte ≈ 655 µs wire time on top.
	if got := p.Cost(8192); got != UDPPerMessage+8192*80*time.Nanosecond {
		t.Fatalf("Cost(8192) = %v", got)
	}
}

func TestSFSProfileShape(t *testing.T) {
	enc := SFS(true)
	noenc := SFS(false)
	if enc.Cost(0) <= noenc.Cost(0) {
		t.Fatal("encryption adds no per-message cost")
	}
	if enc.Cost(100000)-enc.Cost(0) <= noenc.Cost(100000)-noenc.Cost(0) {
		t.Fatal("encryption adds no per-byte cost")
	}
	// SFS null RPC ≈ 790 µs: two messages, each charged once per
	// side. 2 × SFS cost(small) should be in the 700–900 µs band.
	rpc := 2 * enc.Cost(120)
	if rpc < 700*time.Microsecond || rpc > 900*time.Microsecond {
		t.Fatalf("SFS null RPC model = %v, want ≈790 µs", rpc)
	}
	nfs := 2 * NFSUDP().Cost(120)
	if nfs < 150*time.Microsecond || nfs > 300*time.Microsecond {
		t.Fatalf("NFS null RPC model = %v, want ≈200 µs", nfs)
	}
	if rpc < 3*nfs {
		t.Fatalf("SFS/NFS latency ratio %v/%v below the paper's ≈4x", rpc, nfs)
	}
}

func TestSpinWaitPrecision(t *testing.T) {
	for _, d := range []time.Duration{50 * time.Microsecond, 300 * time.Microsecond, 3 * time.Millisecond} {
		start := time.Now()
		spinWait(d)
		got := time.Since(start)
		if got < d {
			t.Fatalf("spinWait(%v) returned after %v", d, got)
		}
		if got > d+2*time.Millisecond {
			t.Fatalf("spinWait(%v) overshot to %v", d, got)
		}
	}
}

func TestShapedConnDelivers(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan []byte, 1)
	go func() {
		raw, err := l.Accept()
		if err != nil {
			return
		}
		c := Shape(raw, Profile{PerMessage: time.Millisecond})
		buf := make([]byte, 16)
		n, _ := c.Read(buf)
		c.Write(buf[:n]) //nolint:errcheck
		done <- buf[:n]
	}()
	raw, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := Shape(raw, Profile{PerMessage: time.Millisecond})
	start := time.Now()
	if _, err := c.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, err := c.Read(buf)
	if err != nil || string(buf[:n]) != "ping" {
		t.Fatalf("echo: %q %v", buf[:n], err)
	}
	if rtt := time.Since(start); rtt < 2*time.Millisecond {
		t.Fatalf("round trip %v under the modeled 2 ms", rtt)
	}
	<-done
}

func TestDiskCharges(t *testing.T) {
	d := NewDisk()
	start := time.Now()
	d.Sync()
	if got := time.Since(start); got < d.SyncCost {
		t.Fatalf("Sync charged %v, want >= %v", got, d.SyncCost)
	}
	start = time.Now()
	d.Write(1 << 20)
	if got := time.Since(start); got < 50*time.Millisecond {
		t.Fatalf("1 MB write charged %v", got)
	}
	// Reads are buffer-cache hits by default.
	start = time.Now()
	d.Read(1 << 20)
	if got := time.Since(start); got > 5*time.Millisecond {
		t.Fatalf("cached read charged %v", got)
	}
}

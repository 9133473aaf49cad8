package netsim

import (
	"net"
	"slices"
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

// TestSpinWaitPrecision: spinWait never returns early, and its
// typical call overshoots by less than a sleep can. The overshoot
// bound holds for the median of many calls, not for each call: a
// sleep the host wakes late (a bare 2 ms sleep overshot by more than
// 2 ms in one call in twenty-five on a shared 2-vCPU Linux VM) makes
// any deadline late, and that is the host's scheduling, not spinWait.
// On that VM the median overshoot was under 1 µs, idle or beside two
// busy loops, while time.Sleep alone overshot by a median 0.16 ms
// (3 ms) to 1 ms (50 µs), so a spinWait that slept the whole wait
// fails the 100 µs bound.
func TestSpinWaitPrecision(t *testing.T) {
	const calls = 25
	for _, d := range []time.Duration{50 * time.Microsecond, 300 * time.Microsecond, 3 * time.Millisecond} {
		over := make([]time.Duration, calls)
		for i := range over {
			start := time.Now()
			spinWait(d)
			got := time.Since(start)
			if got < d {
				t.Fatalf("spinWait(%v) returned after %v", d, got)
			}
			over[i] = got - d
		}
		slices.Sort(over)
		if med := over[calls/2]; med > 100*time.Microsecond {
			t.Fatalf("spinWait(%v) overshot by a median %v over %d calls (max %v)", d, med, calls, over[calls-1])
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

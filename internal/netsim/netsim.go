// Package netsim models the paper's evaluation hardware (§4.1): two
// 550 MHz Pentium IIIs on 100 Mbit/s switched Ethernet with IBM 18ES
// disks. The modern reproduction machine is orders of magnitude
// faster, so measured absolute numbers would compress every stack
// toward zero; this package re-inserts the era's costs as explicit,
// documented constants.
//
// The model is calibrated from the paper's own micro-benchmarks
// (Figure 5) and standard hardware specifications:
//
//   - network: per-message fixed cost and 100 Mbit/s wire time, set so
//     a null NFS RPC costs ≈200 µs (UDP) / 220 µs (TCP) round trip;
//   - user-level relay: the SFS client and server run in user space
//     and add two boundary crossings per message (≈285 µs per
//     direction at 550 MHz), accounting for the paper's 790 µs SFS
//     null RPC of which only ≈20 µs is encryption;
//   - crypto: ARC4+SHA-1 throughput at 550 MHz, bounding streaming
//     transfers the way the paper's 4.1 vs 7.1 Mbyte/s split shows;
//   - disk: seek-dominated synchronous metadata updates (≈5 ms) and
//     media-rate transfers.
//
// Everything else — RPC counts, caching behaviour, protocol bytes,
// the actual cryptographic transforms — is executed for real; the
// model only charges time for hardware this reproduction does not
// have. Delays are enforced with spin-precision waits because the
// interesting quantities sit near scheduler granularity.
//
// The model wraps the system under test; nothing in the measured stack
// imports this package or branches on it. The network is a net.Conn
// wrapper (Shape) applied to both ends of every connection, the disk a
// storage decorator (DiskStore) a file system is built over.
package netsim

import (
	"net"
	"runtime"
	"sync"
	"time"
)

// Profile describes the time costs of one side of a connection.
// A zero Profile charges nothing.
type Profile struct {
	// PerMessage is charged once per Write (packet processing,
	// interrupts, syscall entry).
	PerMessage time.Duration
	// PerByte is charged per payload byte (wire time).
	PerByte time.Duration
	// CopyPerByte models user-space staging copies (the SFS daemons
	// memcpy every payload byte between buffers on the era's hardware).
	// Flat Writes always pay it; vectored WriteSegments does not —
	// a scatter-gather sender has no staging copy to charge for.
	CopyPerByte time.Duration
	// RelayPerMessage models the SFS user-level relay: the extra
	// boundary crossings a message suffers passing through sfscd or
	// sfssd rather than staying in the kernel.
	RelayPerMessage time.Duration
	// CryptoPerByte models symmetric encryption and MAC cost at the
	// era's CPU speed. Zero for unencrypted stacks.
	CryptoPerByte time.Duration
	// CryptoPerMessage is the fixed per-message crypto cost (MAC
	// re-keying, padding).
	CryptoPerMessage time.Duration
}

// Cost returns the total charge for one flat-Write message of n
// bytes, staging copy included.
func (p Profile) Cost(n int) time.Duration {
	return p.PerMessage + p.RelayPerMessage + p.CryptoPerMessage +
		time.Duration(n)*(p.PerByte+p.CryptoPerByte+p.CopyPerByte)
}

// vectoredCost is Cost without the user-space staging-copy component:
// the charge for a scatter-gather send of n bytes.
func (p Profile) vectoredCost(n int) time.Duration {
	return p.PerMessage + p.RelayPerMessage + p.CryptoPerMessage +
		time.Duration(n)*(p.PerByte+p.CryptoPerByte)
}

// Standard calibration constants (see package comment and DESIGN.md).
const (
	// Wire time on 100 Mbit/s Ethernet: 80 ns/byte.
	WireNsPerByte = 80
	// Per-message processing for the kernel NFS stacks. Two
	// messages per RPC ⇒ 100 µs each side gives the paper's 200 µs
	// null RPC over UDP.
	UDPPerMessage = 100 * time.Microsecond
	// TCP adds stream-processing overhead (220 µs null RPC).
	TCPPerMessage = 110 * time.Microsecond
	// The SFS user-level relay: (790−220−20)/2 ≈ 275 µs extra per
	// message direction.
	SFSRelayPerMessage = 275 * time.Microsecond
	// Software encryption cost: ≈20 µs fixed per RPC...
	SFSCryptoPerMessage = 10 * time.Microsecond
	// ...plus a throughput cap. The paper moves 7.1→4.1 Mbyte/s
	// when encryption turns on: ≈1/(4.1M) − 1/(7.1M) ≈ 103 ns/byte.
	SFSCryptoNsPerByte = 103
	// User-level copies cap unencrypted SFS streaming at
	// 7.1 Mbyte/s vs 9.3: ≈ 1/(7.1M) − 1/(9.3M) ≈ 33 ns/byte.
	SFSCopyNsPerByte = 33
)

// NFSUDP returns the per-side profile of the kernel NFS-over-UDP
// baseline.
func NFSUDP() Profile {
	return Profile{PerMessage: UDPPerMessage, PerByte: WireNsPerByte}
}

// NFSTCP returns the per-side profile of the kernel NFS-over-TCP
// baseline.
func NFSTCP() Profile {
	return Profile{PerMessage: TCPPerMessage, PerByte: WireNsPerByte}
}

// SFS returns the per-side profile of the SFS stack. encrypted
// selects whether the ARC4+MAC cost applies (the paper's "SFS" vs
// "SFS w/o encryption" rows).
func SFS(encrypted bool) Profile {
	p := Profile{
		PerMessage:      TCPPerMessage,
		PerByte:         WireNsPerByte,
		CopyPerByte:     SFSCopyNsPerByte,
		RelayPerMessage: SFSRelayPerMessage,
	}
	if encrypted {
		p.CryptoPerByte = SFSCryptoNsPerByte
		p.CryptoPerMessage = SFSCryptoPerMessage
	}
	return p
}

// spinWait blocks for d with sub-scheduler precision: it sleeps for
// the bulk and spins the remainder. The spin yields the processor on
// every iteration: modeled wire/crypto time is not CPU time, so other
// goroutines — the rest of a pipelined read or write window, the
// peer's reply path, real crypto — must be able to run during the
// charge. With an empty run queue the yield is nearly free, keeping
// the precision the single-threaded micro-benchmarks rely on.
func spinWait(d time.Duration) {
	if d <= 0 {
		return
	}
	deadline := time.Now().Add(d)
	if d > 2*time.Millisecond {
		time.Sleep(d - time.Millisecond)
	}
	for time.Now().Before(deadline) {
		runtime.Gosched()
	}
}

// Conn shapes the write side of a connection with a Profile.
type Conn struct {
	net.Conn
	p    Profile
	mu   sync.Mutex
	vbuf net.Buffers // WriteSegments scratch, guarded by mu
}

// Shape wraps conn so every Write is charged under p. Shape both ends
// of a connection to model both directions.
func Shape(conn net.Conn, p Profile) *Conn {
	return &Conn{Conn: conn, p: p}
}

// Write charges the model cost, then forwards.
func (c *Conn) Write(b []byte) (int, error) {
	c.mu.Lock()
	spinWait(c.p.Cost(len(b)))
	c.mu.Unlock()
	return c.Conn.Write(b)
}

// WriteSegments charges one message at the vectored rate — everything
// Cost charges except the user-space staging copy, which a
// scatter-gather send does not perform — then forwards the segments
// (writev on OS sockets, sequential writes otherwise). It satisfies
// sunrpc.SegmentWriter; copied is always 0. Segments are not retained.
func (c *Conn) WriteSegments(segs [][]byte) (int, int, error) {
	n := 0
	for _, s := range segs {
		n += len(s)
	}
	c.mu.Lock()
	spinWait(c.p.vectoredCost(n))
	// net.Buffers.WriteTo consumes its receiver (re-slices and zeroes
	// entries), so build it in the scratch and restore the full slice
	// afterwards for reuse.
	bufs := append(c.vbuf[:0], segs...)
	c.vbuf = bufs // keep the pre-WriteTo header for scratch reuse
	_, err := (&bufs).WriteTo(c.Conn)
	for i := range c.vbuf {
		c.vbuf[i] = nil
	}
	c.vbuf = c.vbuf[:0]
	c.mu.Unlock()
	if err != nil {
		return 0, 0, err
	}
	return n, 0, nil
}

// Disk models the evaluation machines' SCSI disk for the substrate
// file system. The dominant term for the paper's metadata-heavy
// phases is the synchronous update (seek + rotation), ≈5 ms; writes
// stream at media rate. Reads are charged nothing by default: the
// paper's working sets fit the servers' 256 MB buffer caches (and its
// streaming micro-benchmark deliberately reads a sparse file), so
// benchmark reads are cache hits.
type Disk struct {
	// SyncCost is charged per synchronous metadata update/commit.
	SyncCost time.Duration
	// WriteNsPerByte is media transfer time for writes.
	WriteNsPerByte time.Duration
	// ReadNsPerByte is media transfer time for reads that miss the
	// buffer cache (0 = always hit, the benchmark assumption).
	ReadNsPerByte time.Duration
}

// NewDisk returns the calibrated IBM 18ES stand-in.
func NewDisk() *Disk {
	return &Disk{
		SyncCost:       5 * time.Millisecond,
		WriteNsPerByte: 60, // ≈16 Mbyte/s media rate
	}
}

// Read charges a media read of n bytes.
func (d *Disk) Read(n int) { spinWait(time.Duration(n) * d.ReadNsPerByte) }

// Write charges an asynchronous media write of n bytes.
func (d *Disk) Write(n int) { spinWait(time.Duration(n) * d.WriteNsPerByte) }

// Sync charges a synchronous update.
func (d *Disk) Sync() { spinWait(d.SyncCost) }
